#!/usr/bin/env python3
"""Runs alternating benchmark pairs of a parent revision and the checkout.

    python3 scripts/bench_pairs.py --workload W --pairs N --seed0 S [--parent REV]

Exports REV (default HEAD~1) with `git archive` into a scratch directory,
builds each side's `perfbench` into its own CARGO_TARGET_DIR, then runs N
pairs through each side's `perfbench/run.py`, pair i at seed S+i, with the
side that runs first alternating. Prints, for every end-to-end metric of
BENCHMARK.json, both sides' medians and quartiles and the pairs the
checkout won, and checks the repository's rule for a gain: at least 9 of
10 pairs won, a median gap larger than the parent's interquartile range,
and no end-to-end metric past its BENCHMARK.json bound. Exits 1 when a run
fails or answers wrongly.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export(rev, dest):
    """Writes the tree of `rev` into `dest` (a fresh directory)."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev], check=True,
                             stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)


def build(tree, target):
    subprocess.run(["cargo", "build", "--release", "--offline", "--quiet",
                    "--manifest-path", os.path.join(tree, "perfbench", "Cargo.toml")],
                   cwd=tree, env=dict(os.environ, CARGO_TARGET_DIR=target),
                   stdout=sys.stderr, check=True)


def run(tree, target, workload, seed, seconds):
    """One untraced benchmark run; returns its result JSON."""
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=dict(os.environ, CARGO_TARGET_DIR=target),
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} in {tree} exited {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed0", type=int, required=True)
    parser.add_argument("--parent", default="HEAD~1")
    parser.add_argument("--seconds", type=float,
                        help="run length (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--scratch", help="directory for the export and builds "
                        "(default: a new temporary directory)")
    parser.add_argument("--out", help="also write every run's result JSON here")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        parser.error(f"unknown workload {args.workload}")
    seconds = args.seconds or bench["run_seconds"]
    scratch = args.scratch or tempfile.mkdtemp(prefix="bench_pairs-")
    parent_tree = os.path.join(scratch, "parent")
    os.makedirs(parent_tree, exist_ok=True)
    export(args.parent, parent_tree)
    sides = {"parent": (parent_tree, os.path.join(scratch, "target-parent")),
             "change": (ROOT, os.path.join(scratch, "target-change"))}
    for tree, target in sides.values():
        build(tree, target)

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            result = run(*sides[side], args.workload, seed, seconds)
            runs[side].append(result)
            print(f"pair {i} seed {seed} {side}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "parent": args.parent, "seed0": args.seed0,
                       "seconds": seconds, "runs": runs}, f, indent=1)

    ok = all(r["correct"] and r["failed"] == 0 for side in runs.values() for r in side)
    need = -(-9 * args.pairs // 10)
    print(f"{args.workload}: {args.pairs} pairs, seeds {args.seed0}-{args.seed0 + args.pairs - 1}, "
          f"{seconds} s runs, parent {args.parent}; gain rule: >= {need} pairs won and a median "
          f"gap above the parent IQR")
    print(f"{'metric':<16} {'parent q1/med/q3':>28} {'change q1/med/q3':>28} "
          f"{'change':>8} {'won':>6} {'bound':>6} gain")
    within_bounds = True
    for m in bench["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        p = [r["metrics"][name]["value"] for r in runs["parent"]]
        c = [r["metrics"][name]["value"] for r in runs["change"]]
        pq, cq = quartiles(p), quartiles(c)
        won = sum((cv < pv) if lower else (cv > pv) for pv, cv in zip(p, c))
        rel = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
        worse = rel if lower else -rel
        past_bound = worse > m["bound"]
        within_bounds &= not past_bound
        gap = (pq[1] - cq[1]) if lower else (cq[1] - pq[1])
        gain = won >= need and gap > pq[2] - pq[0]
        fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
        print(f"{name:<16} {fmt(pq):>28} {fmt(cq):>28} {rel:>+8.1%} {won:>3}/{len(p):<2} "
              f"{'PAST' if past_bound else 'ok':>6} {'yes' if gain else 'no'}")
    print(f"every run correct: {'yes' if ok else 'NO'}; "
          f"every metric within its bound: {'yes' if within_bounds else 'NO'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
