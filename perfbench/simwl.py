"""Simulator workloads, driven through the perfbench_sim harness."""

import json
import os
import shutil
import statistics
import subprocess
import tempfile

import checks
from common import binary, gprof_module_self_s, log, median, traces_dir

WORKLOADS = ("flower_100k",)
# A run of `seconds` pools seconds / TRIAL_S distinct trials, one harness
# process each: a number fixed by --seconds alone, so the simulated figures
# never depend on how fast the program is. A storm-free trial takes about
# 7.5 s on a 4-core x86 box and storm trials up to 90 s, and the reference
# suite about 1 s per call, so a run takes longer than `seconds` on average
# (about 70 s at 40).
TRIAL_S = 8
# Simulated events of a storm-free flower_100k trial, roughly: run_s is a
# trial's CPU time scaled to this many events.
EVENTS_PER_TRIAL = 10_000_000
# CPU seconds of the perfbench_reference suite on a quiet 4-core x86 box.
# Host times are reported at this host speed: a figure is multiplied by
# REFERENCE_S over the suite's time measured around it.
REFERENCE_S = 1.00


def trials_for(seconds):
    return max(1, round(seconds / TRIAL_S))


def reference():
    """CPU seconds of one run of the host-speed reference suite."""
    out = subprocess.run([binary("opt", "perfbench_reference")], check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)["total_s"]


def harness(kind, args, cwd=None):
    out = subprocess.run([binary(kind, "perfbench_sim")] + args, cwd=cwd,
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def run(workload, seed, seconds, trace, tmp_root):
    if trace:
        layer, account, errors = layer_metrics(workload, seed, tmp_root)
        return {"attempted": account["issued"], "failed": account["lost"],
                "errors": errors, "layer": layer}
    # The reference suite runs before the first trial and after each one,
    # so every trial's host speed is read on both sides of it.
    refs = [reference()]
    runs = []
    for i in range(trials_for(seconds)):
        runs.append(harness("opt", ["timed", "--workload", workload,
                                    "--seed", str(seed), "--trial", str(i)]))
        refs.append(reference())
    # A trial's host time times REFERENCE_S over the mean of the suite's
    # times before and after it: its time at the reference host speed.
    # Other tenants' load on a shared machine slowed single trials by up to
    # half for a minute or more at a time; it slows the suite alike, so the
    # quotient keeps the program's cost and drops most of the host's drift
    # (single-trial spread 0.22 raw, 0.10 scaled; README.md).
    scale = [2 * REFERENCE_S / (refs[i] + refs[i + 1]) for i in range(len(runs))]
    trials = [r["outputs"] for r in runs]
    accounts = [r["account"] for r in runs]
    errors = []
    for t, a in zip(trials, accounts):
        errors += checks.sim_trial(t)
        errors += checks.sim_account(a, t)
    # Each figure is the median over the run's trials of that trial's
    # figure. Some seeds set off a Chord message storm (7x the events, a
    # third of the hit ratio; see README.md), so a pooled figure would
    # swing with how many storm trials a seed happens to draw.
    cpu = [r["trial_cpu_s"] * k for r, k in zip(runs, scale)]
    log("flower_100k raw trial CPU s:", [round(r["trial_cpu_s"], 3) for r in runs],
        "reference s:", [round(x, 3) for x in refs])
    metrics = {
        # Host time of a trial is its CPU time at the reference host speed:
        # the simulator is single-threaded, so on an idle machine that is
        # its wall time, and on a shared one it leaves out the time other
        # tenants' work held the CPU. It is scaled to EVENTS_PER_TRIAL
        # events, so the figure is the program's cost per unit of simulated
        # work, not how much work a seed happens to draw; rps carries the
        # work.
        "run_s": (median([c * EVENTS_PER_TRIAL / t["events"]
                          for t, c in zip(trials, cpu)]), "s"),
        "peak_rss_mb": (median([r["peak_rss_kb"] for r in runs]) / 1024.0, "MiB"),
        "lookup_ms": (median([t["lookup_sum_ms"] / t["lookup_count"] for t in trials]), "ms"),
        "hit_ratio": (median([t["hits"] / t["queries"] for t in trials]), "fraction"),
        # Cold set-up: a harness process' CPU time from its start until its
        # first ExperimentEnv + FlowerSystem::Setup returned, at the
        # reference host speed read just before the process started (CPU
        # time, as for run_s: ~40 ms of wall time on a shared machine is
        # mostly other tenants' noise). Every trial's process starts cold,
        # so this is the mean of the run's cold set-ups: single ones fall
        # near 32 ms or near 48 ms, about half each, and a median of such
        # values jumps between the two.
        "setup_s": (statistics.fmean(r["setup_cpu_s"] * REFERENCE_S / ref
                                     for r, ref in zip(runs, refs)), "s"),
        "rps": (median([t["queries"] / c for t, c in zip(trials, cpu)]), "1/s"),
        "p50_ms": (median([t["p50_lookup_ms"] for t in trials]), "ms"),
        "p99_ms": (median([t["p99_lookup_ms"] for t in trials]), "ms"),
    }
    # Every query a trial issued is attempted; one that has no outcome at
    # the end although its session is alive and it is not in flight failed.
    return {
        "attempted": sum(a["issued"] for a in accounts),
        "failed": sum(a["lost"] for a in accounts),
        "errors": errors,
        "metrics": metrics,
    }


def layer_metrics(workload, seed, tmp_root):
    """Per-layer figures: a traced trial (which also runs the untraced
    RunExperiment trial it must reproduce) plus a gprof trial."""
    tr = harness("opt", ["traced", "--workload", workload, "--seed", str(seed)])
    errors = checks.sim_seam(tr["seam"], tr["traced_outputs"]["traffic"])
    errors += checks.sim_traced_matches(tr["traced_outputs"], tr["untraced_outputs"])
    errors += checks.sim_trial(tr["untraced_outputs"])
    errors += checks.sim_account(tr["account"], tr["traced_outputs"])

    # gprof: one trial of the instrumented build of the same sources.
    pgdir = tempfile.mkdtemp(prefix="gprof-", dir=tmp_root)
    try:
        harness("pg", ["timed", "--workload", workload, "--seed", str(seed),
                       "--trial", "0"], cwd=pgdir)
        module_s = gprof_module_self_s(binary("pg", "perfbench_sim"),
                                       [os.path.join(pgdir, "gmon.out")])
    finally:
        shutil.rmtree(pgdir, ignore_errors=True)

    with open(os.path.join(traces_dir(), f"{workload}-{seed}.json"), "w") as f:
        json.dump(tr["spans"], f)
    out = tr["traced_outputs"]
    m = {
        "simcore.events": out["events"],
        "simcore.events_cancelled": out["events_cancelled"],
        "simcore.events_per_s": tr["events_per_s"],
        "simcore.pending_max": tr["pending_max"],
        "simcore.hold_ns": tr["hold_ns"],
        "sim.dropped_dead": out["traffic"]["dropped"]["messages"],
        "sim.carry_ns": tr["carry_ns"],
        "chord.resolve_hops": tr["resolve_hops"],
        "flower.dring_resolve_failures": out["dring_resolve_failures"],
        "flower.dir_query_timeouts": out["dir_query_timeouts"],
        "flower.summary_hits": out["summary_hits"],
        "flower.dir_failures_detected": out["dir_failures_detected"],
        "flower.queries_unresolved": out["queries_issued"] - out["queries"],
        "expt.setup_s": tr["setup_s"],
        "expt.rss_kb_per_peer": tr["peak_rss_kb"] / tr["population"],
        "wire.encode_ns": tr["encode_ns"],
        "wire.decode_ns": tr["decode_ns"],
        "wire.bytes_per_msg": tr["bytes_per_msg"],
        "wire.modeled_bytes_per_msg": tr["modeled_bytes_per_msg"],
        "trace.overhead_s": tr["traced_run_s"] - tr["untraced_run_s"],
        "trace.spans": len(tr["spans"]),
    }
    for fam in ("chord", "flower", "nack"):
        m[f"sim.msgs.{fam}"] = tr["seam"][fam]["messages"]
        m[f"sim.bytes.{fam}"] = tr["seam"][fam]["bytes"]
    for phase, ms in tr["phase_ms"].items():
        m[f"flower.phase_ms.{phase}"] = ms
    for module, secs in module_s.items():
        m[f"{module}.self_s"] = secs
    return m, tr["account"], errors
