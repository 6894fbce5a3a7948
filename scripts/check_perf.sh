#!/bin/sh
# Perf regression gate: runs the gated benches through
# scripts/run_benches.sh into a temp dir, then checks the fresh
# BENCH_*.json files against the gate table in scripts/perf_gates.py
# (one row per gate: bench, field, op, bound, hard|demotable). On noisy
# or shared hardware (CI runners), set CHECK_PERF_WARN_ONLY=1 to demote
# the wall-clock rows' misses to warnings; hard rows and missing fields
# still fail.
#
# Three gates live inside the bench binaries and fail run_benches.sh
# itself, so no setting demotes them: bench_ablation_sampling asserts in
# simulated time that per-transaction overhead falls monotonically with
# the sampling rate and that 0.1% stays within 10% of profiler-off;
# bench_scaling_clients asserts flat per-client memory (top-scale
# B/client <= 1.1x the 10k value); bench_ablation_live_obs asserts that
# the daemon does not perturb the simulated run.
#
# Usage: scripts/check_perf.sh [-B BUILD_DIR] [-n RUNS]
set -u

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir="$repo_root/build"
runs=3

while getopts "B:n:" opt; do
  case "$opt" in
    B) build_dir="$OPTARG" ;;
    n) runs="$OPTARG" ;;
    *) echo "usage: $0 [-B BUILD_DIR] [-n RUNS]" >&2; exit 2 ;;
  esac
done

# The gate compares against baselines recorded serially; pin the
# parallelism knobs so an inherited BENCH_THREADS/BENCH_SHARDS cannot
# skew the fresh measurement (bench/bench_util.h).
BENCH_THREADS=${BENCH_THREADS:-1}
BENCH_SHARDS=${BENCH_SHARDS:-1}
BENCH_SAMPLE_RATE=${BENCH_SAMPLE_RATE:-1.0}
export BENCH_THREADS BENCH_SHARDS BENCH_SAMPLE_RATE

# The gate sweep stops at 100k clients; the full 1M point is for
# recorded baselines (scripts/run_benches.sh with the default cap).
BENCH_SCALING_MAX_CLIENTS=${BENCH_SCALING_MAX_CLIENTS:-100000}
export BENCH_SCALING_MAX_CLIENTS

fresh_dir=$(mktemp -d)
trap 'rm -rf "$fresh_dir"' EXIT

# run_benches.sh validates -n (exit 2) and fails the suite if any bench
# exits non-zero, which is how the in-binary assertions gate the run.
"$repo_root/scripts/run_benches.sh" -n "$runs" -B "$build_dir" -o "$fresh_dir" \
    bench_table3_emulation bench_ablation_sampling bench_ablation_section_cache \
    bench_scaling_clients bench_ablation_live_obs \
    bench_fig8_apache_profile bench_fig9_squid_profile bench_fig10_haboob_profile \
    bench_fig11_response_time bench_fig12_throughput bench_table1_tpcw_profile \
    bench_table2_overhead bench_sec92_apache_overhead \
    bench_sec93_proxy_seda_overhead || exit $?

python3 "$repo_root/scripts/perf_gates.py" "$fresh_dir" "$repo_root/bench/baselines"
