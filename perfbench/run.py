#!/usr/bin/env python3
"""Flower-CDN benchmark: one command per workload, on both substrates.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the program from the checkout's
sources (into $CARGO_TARGET_DIR, default .bench_build), runs workload W,
checks the program's outputs and prints, as the last line of stdout, one
JSON object: {"correct", "attempted", "failed", "metrics"}. --trace 0
prints the end-to-end metrics, --trace 1 the per-layer ones (a separate,
longer run whose numbers never feed the end-to-end ones). A failed check
prints the result with "correct": false and exits 1. See README.md.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import livewl  # noqa: E402
import simwl  # noqa: E402
from common import build_all, build_root, log  # noqa: E402

WORKLOADS = list(simwl.WORKLOADS) + list(livewl.WORKLOADS)


def load_spec():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "BENCHMARK.json")
    with open(path) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    spec = load_spec()

    build_all()
    tmp_root = os.path.join(build_root(), "runs")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    try:
        if args.workload in simwl.WORKLOADS:
            res = simwl.run(args.workload, args.seed, args.seconds, args.trace, tmp)
        else:
            res = livewl.run(args.workload, args.seed, args.seconds, args.trace, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.trace:
        metrics = per_layer(spec, res["layer"])
    else:
        e2e = res["metrics"] if "metrics" in res else livewl.end_to_end(res)
        metrics = {}
        for m in spec["end_to_end"]:
            value, unit = e2e[m["name"]]
            if unit != m["unit"]:
                raise RuntimeError(f"{m['name']}: unit {unit} != {m['unit']}")
            metrics[m["name"]] = {"value": value, "unit": unit}
    for err in res["errors"]:
        log("CHECK FAILED:", err)
    correct = not res["errors"]
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


def per_layer(spec, layer):
    """Every per-layer metric of BENCHMARK.json. A metric of a layer this
    workload's substrate does not drive through the benchmark (the HTTP
    path on the simulator, simulator-harness counters on the live cluster)
    reads 0; README.md lists where each is measured."""
    metrics = {}
    for m in spec["per_layer"]:
        metrics[m["name"]] = {"value": layer.get(m["name"], 0), "unit": m["unit"]}
    unknown = sorted(set(layer) - set(metrics))
    if unknown:
        raise RuntimeError(f"layer metrics missing from BENCHMARK.json: {unknown}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
