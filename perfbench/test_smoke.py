#!/usr/bin/env python3
"""Tiny-scale smoke test of the benchmark.

    python3 perfbench/test_smoke.py

Runs every workload of BENCHMARK.json at `--scale tiny`, untraced and
traced, and checks that each run exits 0, answers correctly, prints one
`host` line and a result line with exactly the keys the contract names, and
prints every metric BENCHMARK.json names with its unit (end-to-end metrics
untraced, per-layer metrics traced). A traced run must also leave its
Chrome trace and self-time table. perfbench/metrics.json must describe
exactly the metrics and workloads BENCHMARK.json names.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
    return proc.stdout.splitlines()


def check_run(workload, trace, table):
    lines = run(workload, trace)
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"not correct: {lines[-12:]}")
    if not any(line.startswith("host ") for line in lines):
        errors.append("no host line")
    metrics = result.get("metrics", {})
    for m in table:
        got = metrics.get(m["name"])
        if got is None:
            errors.append(f"metric {m['name']} missing")
        elif got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            errors.append(f"metric {m['name']} printed as {got}, unit should be {m['unit']}")
    extra = set(metrics) - {m["name"] for m in table}
    if extra:
        errors.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    if trace:
        out = os.path.join(ROOT, ".bench_out", workload)
        for name in (f"trace-seed{SEED}.json", f"layers-seed{SEED}.txt"):
            if not os.path.isfile(os.path.join(out, name)):
                errors.append(f"{name} not written")
    return [f"{workload} trace={trace}: {e}" for e in errors]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "metrics.json")) as f:
        doc = json.load(f)
    errors = []
    for key in ("workloads", "end_to_end", "per_layer"):
        named = [m["name"] for m in bench[key]]
        described = list(doc[key])
        if named != described:
            errors.append(f"metrics.json {key} {described} != BENCHMARK.json {named}")
    for w in bench["workloads"]:
        errors += check_run(w["name"], 0, bench["end_to_end"])
        errors += check_run(w["name"], 1, bench["per_layer"])
    for e in errors:
        print("FAIL", e)
    print("ok" if not errors else f"{len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
