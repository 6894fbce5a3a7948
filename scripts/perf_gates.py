#!/usr/bin/env python3
# The perf gate table and its evaluator: every check scripts/check_perf.sh
# applies to a directory of fresh BENCH_<name>.json files
# (scripts/run_benches.sh, schema in docs/METRICS.md).
#
# Usage: scripts/perf_gates.py FRESH_DIR BASELINE_DIR
#
# One row per gate: (bench, field, op, bound, kind). `field` is a dotted
# path into the fresh BENCH_<bench>.json. The bound is a constant,
# another field of the same fresh file (Fresh), or a field of the
# committed baseline (Baseline): there the fresh value may exceed the
# baseline by at most SLACK_PCT percent. Fresh `_min` values are
# compared against the baseline median: shared hosts inflate single runs
# by 15% or more, but a lost fast path slows every run, the best one too.
#
# A `hard` row always fails on a miss. A `demotable` row is wall-clock
# derived, and CHECK_PERF_WARN_ONLY=1 (noisy shared runners) turns its
# miss into a warning. A missing field or file fails in either case.
# Exit status: 0 when no row fails, 1 otherwise, 2 on bad usage.
import json
import operator
import os
import sys
from typing import NamedTuple


class Fresh(NamedTuple):
    field: str


class Baseline(NamedTuple):
    field: str


HARD, DEMOTABLE = "hard", "demotable"
SLACK_PCT = 10.0
OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
       "==": operator.eq}

# Every app bench that regenerates a paper table or figure. Table 3 is a
# set of google-benchmark micro-benchmarks, gated per op instead.
PAPER_BENCHES = (
    "fig8_apache_profile", "fig9_squid_profile", "fig10_haboob_profile",
    "fig11_response_time", "fig12_throughput", "table1_tpcw_profile",
    "table2_overhead", "sec92_apache_overhead", "sec93_proxy_seda_overhead",
)

ROWS = [
    # The section cache must hit under fig12's bookstore mix and its own
    # ablation. Hit rates count deterministic events, so they gate hard.
    ("fig12_throughput", "derived.section_cache_hit_rate", ">", 0.5, HARD),
    ("ablation_section_cache", "derived.section_cache_hit_rate", ">", 0.5, HARD),
    # Detector tax with the cache hitting, over cached replay. A within-run
    # ratio: host noise inflates both sides alike, so it gates hard.
    ("table3_emulation", "derived.detector_cached_ratio", "<", 3.0, HARD),
    # The live publish path must never allocate once warm: a count.
    ("ablation_live_obs", "derived.steady_allocs", "==", 0, HARD),
    # Publish->pump->aggregate cost per transaction against a real daemon.
    ("ablation_live_obs", "derived.publish_ns_per_txn", "<=", 800, DEMOTABLE),
    # Publish and attribution cost as shares of the no-daemon cost per
    # transaction, whose wall-clock denominator makes them demotable.
    ("ablation_live_obs", "derived.live_publish_pct_of_base", "<", 15.0, DEMOTABLE),
    ("ablation_live_obs", "derived.attr_publish_overhead_pct", "<", 15.0, DEMOTABLE),
    # Whole-arm wall overhead of the daemon-attached TPC-W run. It cannot
    # resolve finer than a few points through scheduling jitter, so its
    # ceiling is half the ~49% delta of the pre-pooling publish path.
    ("ablation_live_obs", "derived.live_publish_overhead_pct", "<", 24.5, DEMOTABLE),
    # Wall time of the whole live ablation: fifteen daemon-off/on TPC-W
    # arms plus the direct attribution and pipeline loops.
    ("ablation_live_obs", "wall_ms.min", "<=", Baseline("wall_ms.median"), DEMOTABLE),
    # Wall time of the sampling and section-cache ablations, whose app
    # runs would otherwise only be gated through their ratios.
    *[(bench, "wall_ms.min", "<=", Baseline("wall_ms.median"), DEMOTABLE)
      for bench in ("ablation_sampling", "ablation_section_cache")],
    # Ladder calendar over the heap at 2^17 pending events, and never
    # slower than the heap at the depths the paper benches run at.
    ("scaling_clients", "derived.scheduler_speedup", ">=", 2.0, DEMOTABLE),
    *[("scaling_clients", f"google_benchmark.BM_LadderHold/{n}.cpu_time_ns", "<=",
       Fresh(f"google_benchmark.BM_HeapHold/{n}.cpu_time_ns"), DEMOTABLE)
      for n in (64, 1024, 16384)],
    # An absolute floor: the gate sweep stops at 100k clients while the
    # committed baseline records the 1M point, so the two do not compare.
    ("scaling_clients", "derived.events_per_sec", ">=", 100000, DEMOTABLE),
    ("table3_emulation", "derived.emulate_cached_ns_per_op_min", "<=",
     Baseline("derived.emulate_cached_ns_per_op"), DEMOTABLE),
    # Wall time of every paper bench: the app-level check that catches
    # a regression the micro-benches miss.
    *[(bench, "wall_ms.min", "<=", Baseline("wall_ms.median"), DEMOTABLE)
      for bench in PAPER_BENCHES],
]


def lookup(directory, bench, path):
    """The value at a dotted path in BENCH_<bench>.json, or None."""
    try:
        with open(os.path.join(directory, f"BENCH_{bench}.json")) as f:
            value = json.load(f)
        for key in path.split("."):
            value = value[key]
        return value
    except (OSError, ValueError, KeyError, TypeError):
        return None


def evaluate(fresh_dir, baseline_dir, warn_only):
    """One (verdict, text) per row; the verdict is OK, WARN or FAIL."""
    results = []
    for bench, path, op, bound, kind in ROWS:
        value = lookup(fresh_dir, bench, path)
        if isinstance(bound, Fresh):
            limit, source = lookup(fresh_dir, bench, bound.field), bound.field
        elif isinstance(bound, Baseline):
            limit, source = lookup(baseline_dir, bench, bound.field), f"baseline {bound.field}"
        else:
            limit, source = bound, None
        name = f"{bench} {path}"
        if value is None or limit is None:
            results.append(("FAIL", f"{name}: {'value' if value is None else source} missing"))
            continue
        if isinstance(bound, Baseline):
            delta = 100.0 * (value - limit) / limit
            ok = OPS[op](delta, SLACK_PCT)
            text = f"{name} {value} vs {source} {limit}: {delta:+.1f}% (limit {op} +{SLACK_PCT:g}%)"
        else:
            ok = OPS[op](value, limit)
            text = f"{name} {value} {op} {limit}" + (f" ({source})" if source else "")
        verdict = "OK" if ok else "WARN" if warn_only and kind == DEMOTABLE else "FAIL"
        results.append((verdict, text))
    return results


def main(argv):
    if len(argv) != 3:
        print("usage: perf_gates.py FRESH_DIR BASELINE_DIR", file=sys.stderr)
        return 2
    warn_only = os.environ.get("CHECK_PERF_WARN_ONLY") == "1"
    results = evaluate(argv[1], argv[2], warn_only)
    for verdict, text in results:
        note = " (CHECK_PERF_WARN_ONLY=1)" if verdict == "WARN" else ""
        print(f"check_perf: {verdict} {text}{note}")
    failed = sum(verdict == "FAIL" for verdict, _ in results)
    print(f"check_perf: {len(results)} gates, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
