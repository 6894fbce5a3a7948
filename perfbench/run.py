#!/usr/bin/env python3
"""Host-cost benchmark: host nanoseconds per simulated transaction.

Runs a named workload (or all four in turn) through the apps' public entry
points (apps::RunBookstore, RunMinihttpd, RunMiniproxy, RunSedaServer) on
one thread, checks every run's simulated output, and prints each metric by
name with its unit. Each workload's report ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

--trace 0 reports the end-to-end metrics (tracing off); --trace 1 runs the
per-layer arms and replays, writes their spans as Chrome trace-event
JSON under .bench_build/perfbench/traces/, and reports the per-layer
metrics. The first run configures and builds the runner (CMake, Release)
in .bench_build/perfbench; each run's raw per-call timings are kept under
.bench_build/perfbench/raw/. The exit code is 0 only when every output
check passed; 2 means the benchmark could not build or run.

Host times are medians over a run's calls. Each run repeats every measured
call until --seconds have passed (at least three times). Each call runs in
a fresh child process of the runner, as a real run of the apps would, so it
pays for its own heap growth and page faults, and peak_rss_mb is the
largest peak RSS of those processes.

Host times are corrected for the machine's state. On a shared host other
tenants slow the apps in bursts lasting seconds to minutes, moving raw wall
time by 20% or more between runs. Between calls the runner times two fixed
kernels that slow down with them (runner.cc): a computation c
(CalibrationNs) and first touch of fresh memory f (FaultProbeNs), since
every call runs in a new process and pays for its own page faults. A host
time t measured around kernel times c and f is reported as

    t * sqrt(REF_CALIB_NS / c) * sqrt(REF_FAULT_NS / f)

that is, scaled by the geometric mean of the two kernels' slowdowns. Over
five 25-second runs of each workload on a 4-vCPU VM this cut the mean
spread (interquartile range over median) of host_ns_per_txn from 0.159
uncorrected, and 0.115 with the compute kernel alone, to 0.084.

Seeds: DEFAULT_SEED is what a bare run uses; CONFIRM_SEED is held back for
confirming a claimed gain on a seed not used while the change was written.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNNER = os.path.join(BUILD, "perfbench_runner")

DEFAULT_SEED = 1
CONFIRM_SEED = 20070321
# The two calibration kernels' times on a quiet machine (see the module
# docstring).
REF_CALIB_NS = 40e6
REF_FAULT_NS = 8e6

# The workloads' options live with their code in runner.cc, which reports
# them with every run.
WORKLOADS = ["tpcw_cached_closed", "apache_churn", "tpcw_live_open", "proxy_seda"]

END_TO_END = [
    ("host_ns_per_txn", "ns"),
    ("sim_events_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

PER_LAYER = [
    ("base.host_ns_per_txn", "ns"),
    ("callpath.host_ns_per_txn", "ns"),
    ("tracking.host_ns_per_txn", "ns"),
    ("live.host_ns_per_txn", "ns"),
    ("live.attr_host_ns_per_txn", "ns"),
    ("sim.hold_ns", "ns"),
    ("shm.host_ns_per_section", "ns"),
    ("sim.host_ns_per_event", "ns"),
    ("sim.events_per_txn", "count"),
    ("callpath.samples_per_txn", "count"),
    ("context.appends_per_txn", "count"),
    ("profiler.cct_switches_per_txn", "count"),
    ("shm.sections_per_txn", "count"),
    ("vm.emulated_instr_per_txn", "count"),
    ("events.dispatched_per_txn", "count"),
    ("seda.elements_per_txn", "count"),
    ("sim.queue_peak_depth", "count"),
    ("context.tree_nodes", "count"),
    ("shm.section_cache_hit_ratio", "ratio"),
    ("vm.translation_hit_ratio", "ratio"),
    ("profiler.synopsis_hit_ratio", "ratio"),
    ("live.published_ratio", "ratio"),
    ("sampling.sampled_ratio", "ratio"),
    ("tracing_overhead_pct", "%"),
]

# Informational lines printed with every run (not in the result object):
# failed_ratio repeats failed/attempted, and paper_rel_err_pct is
# deterministic per seed.
INFO = [("failed_ratio", "ratio"), ("paper_rel_err_pct", "%")]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ tree next to perfbench/; run from a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    # Configuring every time is cheap once cached, and picks up a changed
    # perfbench/CMakeLists.txt before make looks for the target.
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "perfbench_runner", "-j", "4"]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_runner(args, workload):
    """Runs the runner binary; returns its parsed JSON."""
    cmd = [RUNNER, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace", os.path.join(traces, "%s-seed%d.json" % (workload, args.seed))]
    if args.force_fail:
        cmd.append("--force-fail")
    out_path = os.path.join(BUILD, "runner-%d.out" % os.getpid())
    # The runner calls until --seconds have passed, then finishes its
    # round of at least three calls per arm. The timeout leaves room for a
    # program five times slower than now, so that it is measured, not cut
    # off, and at the default 25 s stays within 3 minutes.
    timeout = 2 * args.seconds + 120
    with open(out_path, "wb") as out:
        # A session of its own, so that a timeout also stops the call in flight.
        proc = subprocess.Popen(cmd, stdout=out, start_new_session=True)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            fail("runner timed out after %d s" % timeout)
    if code != 0:
        fail("runner exited with %d" % code)
    # The raw per-call timings stay beside the build for inspection.
    raw_path = os.path.join(BUILD, "raw", "%s-seed%d-trace%d.json"
                            % (workload, args.seed, args.trace))
    os.makedirs(os.path.dirname(raw_path), exist_ok=True)
    os.replace(out_path, raw_path)
    with open(raw_path) as f:
        return json.loads(f.read().strip().splitlines()[-1])


def arm_calls(raw, arm, traced=None):
    """An arm's calls, by default those made in the run's own tracing mode."""
    if traced is None:
        traced = raw["traced"]
    return [c for c in raw["calls"] if c["arm"] == arm and c["traced"] == traced]


def correction(raw, i):
    """Factor that takes the machine's state out of a host time, from calibration i."""
    return (REF_CALIB_NS / raw["calib_ns"][i] * REF_FAULT_NS / raw["fault_ns"][i]) ** 0.5


def call_correction(raw, call):
    """Correction for one call, from the calibrations just before and after it."""
    i = call["calib"]
    return (correction(raw, i) * correction(raw, i + 1)) ** 0.5


def run_correction(raw):
    """Correction for work done after the calls (the replays)."""
    return statistics.median(correction(raw, i) for i in range(len(raw["calib_ns"])))


def ns_per_txn(raw, arm, traced=None):
    """Median corrected host ns per simulated transaction over an arm's calls."""
    return statistics.median(c["wall_ns"] / c["txns"] * call_correction(raw, c)
                             for c in arm_calls(raw, arm, traced))


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(raw):
    main = arm_calls(raw, "main")
    return {
        "host_ns_per_txn": ns_per_txn(raw, "main"),
        "sim_events_per_s": statistics.median(
            c["events"] / (c["wall_ns"] * call_correction(raw, c) / 1e9) for c in main),
        # Each call runs in a process of its own; this is the largest.
        "peak_rss_mb": max(c["max_rss_kb"] for c in main) / 1024.0,
        "setup_s": statistics.median(
            ns * correction(raw, i) for ns, i in zip(raw["setup_ns"], raw["setup_calib"])) / 1e9,
    }


def per_layer(raw):
    m = raw["main_metrics"]
    cnt = m["counters"].get
    gauge = m["gauges"].get
    txns = raw["main_txns"]
    arms = {c["arm"] for c in raw["calls"]}
    main = ns_per_txn(raw, "main")
    none = ns_per_txn(raw, "none")
    csprof = ns_per_txn(raw, "csprof")
    if "whodunit_live_off" in arms:
        tracked = ns_per_txn(raw, "whodunit_live_off")
        live = main - tracked
        attr = main - ns_per_txn(raw, "live_attr_off")
    else:
        tracked, live, attr = main, 0.0, 0.0
    events = arm_calls(raw, "main")[0]["events"]
    untraced = ns_per_txn(raw, "main", traced=False)
    sampled_total = cnt("sampling.txns_total", 0)
    return {
        "base.host_ns_per_txn": none,
        "callpath.host_ns_per_txn": csprof - none,
        "tracking.host_ns_per_txn": tracked - csprof,
        "live.host_ns_per_txn": live,
        "live.attr_host_ns_per_txn": attr,
        "sim.hold_ns": statistics.median(raw["hold_ns"]) * run_correction(raw),
        "shm.host_ns_per_section": (statistics.median(raw["shm_ns_per_section"]) *
                                    run_correction(raw) if raw["shm_ns_per_section"] else 0.0),
        "sim.host_ns_per_event": main * txns / events,
        "sim.events_per_txn": ratio(cnt("sim.events_executed", 0), txns),
        "callpath.samples_per_txn": ratio(cnt("sampler.samples_taken", 0), txns),
        "context.appends_per_txn": ratio(
            cnt("context.tree_appends", 0) + cnt("context.appends", 0), txns),
        "profiler.cct_switches_per_txn": ratio(cnt("profiler.cct_switches", 0), txns),
        "shm.sections_per_txn": ratio(cnt("shm.critical_sections", 0), txns),
        "vm.emulated_instr_per_txn": ratio(cnt("vm.instructions_emulated", 0), txns),
        "events.dispatched_per_txn": ratio(cnt("events.dispatched", 0), txns),
        "seda.elements_per_txn": ratio(cnt("seda.elements_processed", 0), txns),
        "sim.queue_peak_depth": gauge("sim.queue_peak_depth", 0),
        "context.tree_nodes": gauge("context.tree_nodes", 0),
        "shm.section_cache_hit_ratio": ratio(
            cnt("shm.section_cache.hits", 0),
            cnt("shm.section_cache.hits", 0) + cnt("shm.section_cache.misses", 0)),
        "vm.translation_hit_ratio": ratio(
            cnt("vm.translation_cache_hits", 0),
            cnt("vm.translation_cache_hits", 0) + cnt("vm.translations", 0)),
        "profiler.synopsis_hit_ratio": ratio(
            cnt("synopsis.dict_hits", 0),
            cnt("synopsis.dict_hits", 0) + cnt("synopsis.dict_inserts", 0)),
        "live.published_ratio": ratio(cnt("live.txns_published", 0), cnt("live.txns_begun", 0)),
        # At sample rate 1.0 no decision is drawn and every transaction
        # is profiled.
        "sampling.sampled_ratio": (ratio(cnt("sampling.txns_sampled", 0), sampled_total)
                                   if sampled_total else 1.0),
        "tracing_overhead_pct": 100.0 * (main - untraced) / untraced,
    }


def paper_rel_err_pct(raw):
    errs = [abs(p["simulated"] - p["paper"]) / p["paper"] * 100.0 for p in raw["paper"]]
    return max(errs) if errs else None


def report(args, workload):
    """Runs one workload and prints its report; returns True when every check passed."""
    raw = run_runner(args, workload)
    print("workload %s seed=%d: %s" % (workload, args.seed, raw["options"]))
    for c in raw["checks"]:
        print("check %-36s %s  %s" % (c["name"], "ok  " if c["ok"] else "FAIL", c["detail"]))
    for f in raw["failures"]:
        print("failure: " + f)
    print("digest %s (simulated results, identical on every call)" % raw["digest"])
    attempted, failed = raw["runs_checked"], raw["runs_failed"]
    info = {"failed_ratio": ratio(failed, attempted), "paper_rel_err_pct": paper_rel_err_pct(raw)}
    for p in raw["paper"]:
        print("paper %s: simulated %.4f vs paper %.2f" % (p["name"], p["simulated"], p["paper"]))
    print("machine: calibration kernels median %.2f ms and %.2f ms (reference %.0f and %.0f); "
          "uncorrected main-arm host ns/txn median %.6g" % (
              statistics.median(raw["calib_ns"]) / 1e6, statistics.median(raw["fault_ns"]) / 1e6,
              REF_CALIB_NS / 1e6, REF_FAULT_NS / 1e6,
              statistics.median(c["wall_ns"] / c["txns"] for c in arm_calls(raw, "main"))))

    if args.trace:
        metrics, units = per_layer(raw), PER_LAYER
    else:
        metrics, units = end_to_end(raw), END_TO_END
    for name, unit in units:
        print("metric %-32s %.6g %s" % (name, metrics[name], unit))
    for name, unit in INFO:
        value = info[name]
        print("metric %-32s %s %s" % (name, "n/a" if value is None else "%.6g" % value, unit))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }
    print(json.dumps(result))
    return failed == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--force-fail", action="store_true",
                    help="make one output check impossible (self-test of the failure path)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    passed = [report(args, w) for w in workloads]
    return 0 if all(passed) else 1


if __name__ == "__main__":
    sys.exit(main())
