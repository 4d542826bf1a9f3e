#!/usr/bin/env python3
"""Steadiness check: runs two sets of ten seeded runs (seeds 1-10) of each
workload and prints, per workload and end-to-end metric, each set's median
and quartiles, the spread (interquartile distance over the median) and
whether the sets agree within the metric's bound. Run from the root of a
checkout:

    python3 perfbench/steady.py [--workloads a,b]

A metric passes when its spread is within its bound in both sets and the
two medians differ by no more than the bound, in either direction, as a
share of the first. The share of failed operations must be the same in both
sets. Exits 1 when anything fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SETS = 2
RUNS = 10
FIRST_SEED = 1


def run_once(workload, seed, seconds):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "0"],
                         capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed}:",
          " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
          file=sys.stderr, flush=True)
    return result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def moved_by(first, later):
    """How far `later` is from `first`, either way, as a share of `first`."""
    if first == 0:
        return 0.0 if later == first else float("inf")
    return abs(later - first) / abs(first)


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]),
                    help="comma-separated workloads (default: all)")
    args = ap.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for _ in range(SETS):
            results = [run_once(workload, FIRST_SEED + i, spec["run_seconds"])
                       for i in range(RUNS)]
            sets.append(results)
            for r in results:
                if not r["correct"]:
                    ok = False
                    print(f"{workload}: a run reported correct=false")
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                  for rs in sets]
        print(f"\n{workload}: failed share per set {shares}")
        if len(set(shares)) != 1:
            ok = False
        print(f"{'metric':<12} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}  verdict")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = [summarize([r["metrics"][name]["value"] for r in rs]) for rs in sets]
            for i, (med, q1, q3, spread) in enumerate(stats):
                verdict = []
                if spread > bound:
                    verdict.append("SPREAD>BOUND")
                if i > 0 and moved_by(stats[0][0], med) > bound:
                    verdict.append("MEDIANS DISAGREE")
                ok = ok and not verdict
                print(f"{name:<12} {i:>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                      f"{spread:>7.3f} {bound:>6.2f}  {' '.join(verdict) or 'ok'}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
