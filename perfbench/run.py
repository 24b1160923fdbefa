#!/usr/bin/env python3
"""Builds and runs the aggsky end-to-end benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--scale tiny]

Builds the `perfbench` package (release, offline) into $CARGO_TARGET_DIR
(default `.bench_build`), runs one workload, and passes the benchmark's
output through, adding one `host` line of facts that decide whether two
results may be compared. The last line of stdout is the result JSON. Exits
non-zero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; leave room for the build check and exit.
RUN_TIMEOUT_S = 170


def filesystem_of(path):
    """The type of the filesystem holding `path` (checkpoint fsync cost)."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as f:
            for line in f:
                fields = line.split()
                mount = fields[4]
                sep = fields.index("-")
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, fstype = mount, fields[sep + 1]
    except (OSError, ValueError, IndexError):
        pass
    return fstype


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full")
    args = parser.parse_args()

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    command = [os.path.join(target, "release", "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", args.scale]
    try:
        run = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} did not finish in {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if run.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        sys.stdout.write(run.stdout)
        print(f"perfbench: {args.workload} failed (exit {run.returncode})", file=sys.stderr)
        return 1

    # The benchmark prints its own facts (usable CPUs, SIMD kernel) as
    # `host key=value ...`; merge them into one line.
    host = {}
    for line in lines[:-1]:
        if line.startswith("host "):
            host.update(kv.split("=", 1) for kv in line.split()[1:] if "=" in kv)
    host.update({
        "seed": args.seed,
        "rustc": rustc_version(),
        "checkpoint_fs": filesystem_of(ROOT),
        "AGGSKY_FORCE_SCALAR": env.get("AGGSKY_FORCE_SCALAR", ""),
    })
    for line in lines[:-1]:
        if not line.startswith("host "):
            print(line)
    print("host " + json.dumps(host, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
