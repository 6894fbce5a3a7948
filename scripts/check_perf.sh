#!/bin/sh
# Perf regression gate: re-runs the Table 3 emulation bench and
# compares the emulate-from-cache per-op cost against the committed
# baseline in bench/baselines/. A >10% slowdown FAILS. On noisy or
# shared hardware (CI runners), set CHECK_PERF_WARN_ONLY=1 to demote
# the failure to a warning.
#
# Also re-runs the sampling-rate ablation (bench_ablation_sampling):
# its pass/fail criteria — per-transaction overhead monotonically
# decreasing with the rate, 0.1% within 10% of profiler-off — are
# asserted by the bench itself in SIMULATED time, so they gate hard
# even under CHECK_PERF_WARN_ONLY (wall-clock noise cannot excuse a
# broken sampling gate).
#
# Two more gates ride on the same suite (PR 7):
#   * derived.section_cache_hit_rate must stay above 0.5 on
#     bench_fig12_throughput AND bench_ablation_section_cache. Hit
#     rates count deterministic cache events, not wall time, so this
#     floor also gates hard under CHECK_PERF_WARN_ONLY.
#   * derived.detector_cached_ratio (detector-on section-cache replay
#     over detector-off cached replay, bench_table3_emulation) must
#     stay below 3.0. A within-run ratio — noise mostly cancels — but
#     still wall-clock-derived, so CHECK_PERF_WARN_ONLY demotes it.
#
# The attribution gate rides on bench_ablation_live_obs (PR 9): the
# critical-path attribution pass's added cost per transaction must stay
# under 15% of the no-daemon per-transaction baseline
# (derived.attr_publish_overhead_pct). The numerator is measured
# directly inside the bench (tight loop over representative span
# DAGs), but the baseline denominator is wall-clock, so
# CHECK_PERF_WARN_ONLY demotes a miss; the bench's sim-identity
# assertion (the daemon must not perturb the run) gates hard inside the
# binary.
#
# The million-client DES gates ride on bench_scaling_clients (PR 8),
# run here with a reduced 1k..100k sweep (BENCH_SCALING_MAX_CLIENTS):
#   * the flat-memory assertion (per-client heap at the top scale
#     <= 1.1x the 10k value) is checked inside the bench binary, so it
#     gates hard — a non-zero exit fails run_benches.sh outright.
#   * derived.scheduler_speedup (heap Step() cost over ladder Step()
#     cost at 2^17 pending events) must stay >= 2.0. Within-run ratio,
#     but wall-clock-derived, so CHECK_PERF_WARN_ONLY demotes it.
#   * BM_LadderHold must be no slower than BM_HeapHold at 64, 1024 and
#     16384 pending events, the depths the paper benches run at. Same
#     kind of within-run ratio, so CHECK_PERF_WARN_ONLY demotes it.
#   * derived.events_per_sec must stay above an absolute floor; raw
#     wall clock, so CHECK_PERF_WARN_ONLY demotes it.
#
# bench_fig12_throughput's wall time (fastest fresh run) must stay
# within 10% of the committed baseline's median. Raw wall clock, so
# CHECK_PERF_WARN_ONLY demotes it.
#
# Usage: scripts/check_perf.sh [-B BUILD_DIR] [-n RUNS]
set -u

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir="$repo_root/build"
runs=3
threshold_pct=10

while getopts "B:n:" opt; do
  case "$opt" in
    B) build_dir="$OPTARG" ;;
    n) runs="$OPTARG" ;;
    *) echo "usage: $0 [-B BUILD_DIR] [-n RUNS]" >&2; exit 2 ;;
  esac
done

# The gate compares against a baseline recorded serially; pin the
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

baseline="$repo_root/bench/baselines/BENCH_table3_emulation.json"
if [ ! -f "$baseline" ]; then
  echo "check_perf: no committed baseline at $baseline; run scripts/run_benches.sh first" >&2
  exit 1
fi

fresh_dir=$(mktemp -d)
trap 'rm -rf "$fresh_dir"' EXIT

# run_benches.sh fails the suite if any bench exits non-zero, which is
# how bench_ablation_sampling's simulated-time assertions gate the run.
"$repo_root/scripts/run_benches.sh" -n "$runs" -B "$build_dir" -o "$fresh_dir" \
    bench_table3_emulation bench_ablation_sampling \
    bench_ablation_section_cache bench_fig12_throughput \
    bench_scaling_clients bench_ablation_live_obs || exit 1
echo "check_perf: sampling ablation assertions passed (monotone overhead, 0.1% within 10% of off)"
echo "check_perf: scaling flat-memory assertion passed (top-scale B/client <= 1.1x the 10k value)"

# Hard floor: the section cache must actually hit under the app-level
# workloads (fig12's bookstore mix) and its own ablation. A hit rate is
# a deterministic event count, so wall-clock noise cannot excuse it —
# no CHECK_PERF_WARN_ONLY escape here.
python3 - "$fresh_dir" <<'PYEOF'
import json, os, sys

fresh_dir = sys.argv[1]
floor = 0.5
failed = False
for name in ("fig12_throughput", "ablation_section_cache"):
    with open(os.path.join(fresh_dir, f"BENCH_{name}.json")) as f:
        doc = json.load(f)
    rate = doc.get("derived", {}).get("section_cache_hit_rate")
    if rate is None:
        print(f"check_perf: FAIL: {name} recorded no section-cache traffic", file=sys.stderr)
        failed = True
        continue
    verdict = "OK" if rate > floor else "FAIL"
    print(f"check_perf: {name} section_cache_hit_rate {rate:.4f} (floor {floor}) {verdict}")
    if rate <= floor:
        failed = True
if failed:
    sys.exit(1)
PYEOF
[ $? -eq 0 ] || exit 1

# Detector tax with the cache hitting: < 3x cached replay. Wall-clock
# derived (though within-run), so WARN_ONLY may demote a miss.
python3 - "$fresh_dir/BENCH_table3_emulation.json" <<'PYEOF'
import json, os, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
ratio = doc.get("derived", {}).get("detector_cached_ratio")
if ratio is None:
    print("check_perf: detector_cached_ratio missing from bench JSON", file=sys.stderr)
    sys.exit(1)
print(f"check_perf: detector_cached_ratio {ratio:.2f}x (limit 3.0x)")
if ratio >= 3.0:
    msg = f"detector-to-cached ratio {ratio:.2f}x breaches the 3x budget"
    if os.environ.get("CHECK_PERF_WARN_ONLY") == "1":
        print(f"WARNING (CHECK_PERF_WARN_ONLY=1): {msg}", file=sys.stderr)
    else:
        print(f"FAIL: {msg}", file=sys.stderr)
        sys.exit(1)
PYEOF
[ $? -eq 0 ] || exit 1

# Live publish pipeline gates (bench_ablation_live_obs, PR 10):
#   * derived.steady_allocs == 0: the direct pipeline loop must not
#     heap-allocate once warm. A deterministic allocation count, not a
#     timing — no CHECK_PERF_WARN_ONLY escape.
#   * derived.publish_ns_per_txn <= 800: the full publish->pump->
#     aggregate cost per transaction, measured directly against a real
#     daemon. Wall-clock timed, so WARN_ONLY may demote a miss.
#   * derived.live_publish_pct_of_base < 15: that direct cost as a
#     share of the no-daemon per-transaction baseline — the "publish
#     plus attribution under 15% of baseline wall" acceptance number.
#     The denominator is wall-clock, so WARN_ONLY may demote a miss.
#   * derived.live_publish_overhead_pct < 24.5: end-to-end wall
#     overhead of the daemon-attached TPC-W arm. A difference of whole
#     arm times — it cannot resolve finer than a few points through
#     container scheduling jitter — so its ceiling is the PR 10
#     acceptance target of a >=2x cut from the ~49% PR 9 delta, not
#     the 15% figure the direct share gates. Wall-clock,
#     WARN_ONLY-demotable.
#   * derived.attr_publish_overhead_pct < 15 (PR 9): the attribution
#     pass's added per-transaction cost over the no-daemon baseline.
#     The baseline denominator is wall-clock, so WARN_ONLY demotes it.
# The bench's sim-identity assertion (the daemon must not perturb the
# run) gates hard inside the binary.
python3 - "$fresh_dir/BENCH_ablation_live_obs.json" <<'PYEOF'
import json, os, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
derived = doc.get("derived", {})
warn_only = os.environ.get("CHECK_PERF_WARN_ONLY") == "1"
failed = False

def miss(msg, demotable):
    global failed
    if demotable and warn_only:
        print(f"WARNING (CHECK_PERF_WARN_ONLY=1): {msg}", file=sys.stderr)
    else:
        print(f"FAIL: {msg}", file=sys.stderr)
        failed = True

allocs = derived.get("steady_allocs")
if allocs is None:
    print("check_perf: steady_allocs missing from bench JSON", file=sys.stderr)
    sys.exit(1)
print(f"check_perf: live publish steady-state allocations {allocs} (must be 0)")
if allocs != 0:
    miss(f"live publish path allocated {allocs} times in steady state", demotable=False)

publish_ns = derived.get("publish_ns_per_txn")
if publish_ns is None:
    print("check_perf: publish_ns_per_txn missing from bench JSON", file=sys.stderr)
    sys.exit(1)
print(f"check_perf: live publish pipeline {publish_ns} ns/txn (limit 800)")
if publish_ns > 800:
    miss(f"publish pipeline {publish_ns} ns/txn breaches the 800ns budget", demotable=True)

share_pct = derived.get("live_publish_pct_of_base")
if share_pct is None:
    print("check_perf: live_publish_pct_of_base missing from bench JSON", file=sys.stderr)
    sys.exit(1)
print(f"check_perf: live publish direct cost {share_pct:+.2f}% of baseline (limit 15%)")
if share_pct >= 15.0:
    miss(f"live publish direct cost {share_pct:.2f}% of baseline breaches the 15% budget", demotable=True)

live_pct = derived.get("live_publish_overhead_pct")
if live_pct is None:
    print("check_perf: live_publish_overhead_pct missing from bench JSON", file=sys.stderr)
    sys.exit(1)
print(f"check_perf: live publish wall overhead {live_pct:+.2f}% (limit 24.5% = half the PR 9 delta)")
if live_pct >= 24.5:
    miss(f"live publish wall overhead {live_pct:.2f}% is not a 2x cut of the 49% PR 9 delta", demotable=True)

attr_pct = derived.get("attr_publish_overhead_pct")
if attr_pct is None:
    print("check_perf: attr_publish_overhead_pct missing from bench JSON", file=sys.stderr)
    sys.exit(1)
print(f"check_perf: attribution publish overhead {attr_pct:+.2f}% of baseline (limit 15%)")
if attr_pct >= 15.0:
    miss(f"attribution publish overhead {attr_pct:.2f}% breaches the 15% budget", demotable=True)

if failed:
    sys.exit(1)
PYEOF
[ $? -eq 0 ] || exit 1

# Million-client DES gates (bench_scaling_clients). Both are wall-clock
# derived, so CHECK_PERF_WARN_ONLY may demote a miss; the flat-memory
# ratio already gated hard inside the bench binary above.
python3 - "$fresh_dir/BENCH_scaling_clients.json" <<'PYEOF'
import json, os, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
derived = doc.get("derived", {})
warn_only = os.environ.get("CHECK_PERF_WARN_ONLY") == "1"
failed = False

def miss(msg):
    global failed
    if warn_only:
        print(f"WARNING (CHECK_PERF_WARN_ONLY=1): {msg}", file=sys.stderr)
    else:
        print(f"FAIL: {msg}", file=sys.stderr)
        failed = True

# Ladder-vs-heap hold model at 2^17 pending events: the tentpole's
# acceptance headline is a >= 2x Step() speedup.
speedup = derived.get("scheduler_speedup")
if speedup is None:
    print("check_perf: scheduler_speedup missing from bench JSON", file=sys.stderr)
    sys.exit(1)
print(f"check_perf: scheduler_speedup {speedup:.2f}x at 131072 pending (floor 2.0x)")
if speedup < 2.0:
    miss(f"ladder-vs-heap speedup {speedup:.2f}x is below the 2x floor")

# At the paper benches' depths the calendar must not lose to the heap.
gb = doc.get("google_benchmark", {})
for depth in (64, 1024, 16384):
    ladder = gb.get(f"BM_LadderHold/{depth}", {}).get("cpu_time_ns")
    heap = gb.get(f"BM_HeapHold/{depth}", {}).get("cpu_time_ns")
    if ladder is None or heap is None:
        print(f"check_perf: hold timings at {depth} missing from bench JSON", file=sys.stderr)
        sys.exit(1)
    print(f"check_perf: hold at {depth} pending: ladder {ladder:.1f} ns vs heap {heap:.1f} ns (ladder must not be slower)")
    if ladder > heap:
        miss(f"ladder Step() {ladder:.1f} ns is slower than the heap's {heap:.1f} ns at {depth} pending")

# Engine throughput at the sweep's top scale. Absolute floor rather
# than a baseline diff: the gate sweep tops out at 100k clients while
# committed baselines record the 1M point, so the two are not
# comparable run-to-run.
eps = derived.get("events_per_sec")
if eps is None:
    print("check_perf: events_per_sec missing from bench JSON", file=sys.stderr)
    sys.exit(1)
floor = 100000
print(f"check_perf: open-loop engine {eps} events/sec (floor {floor})")
if eps < floor:
    miss(f"open-loop engine ran {eps} events/sec, below the {floor} floor")

if failed:
    sys.exit(1)
PYEOF
[ $? -eq 0 ] || exit 1

# fig12 wall time against its committed baseline: the app-level check
# that would have caught a calendar regression the micro-benches miss.
# Fresh min against baseline median, as for the emulation gate below.
python3 - "$repo_root/bench/baselines/BENCH_fig12_throughput.json" \
    "$fresh_dir/BENCH_fig12_throughput.json" "$threshold_pct" <<'PYEOF'
import json, os, sys

baseline_path, fresh_path, threshold = sys.argv[1], sys.argv[2], float(sys.argv[3])
with open(baseline_path) as f:
    base = json.load(f)["wall_ms"]["median"]
with open(fresh_path) as f:
    now = json.load(f)["wall_ms"]["min"]
delta_pct = 100.0 * (now - base) / base
print(f"check_perf: fig12 wall {base:.0f} ms (baseline) -> {now:.0f} ms (fresh min), {delta_pct:+.1f}%")
if delta_pct > threshold:
    msg = f"bench_fig12_throughput wall time regressed {delta_pct:.1f}% (> {threshold:.0f}% threshold)"
    if os.environ.get("CHECK_PERF_WARN_ONLY") == "1":
        print(f"WARNING (CHECK_PERF_WARN_ONLY=1): {msg}", file=sys.stderr)
    else:
        print(f"FAIL: {msg}", file=sys.stderr)
        sys.exit(1)
PYEOF
[ $? -eq 0 ] || exit 1

python3 - "$baseline" "$fresh_dir/BENCH_table3_emulation.json" "$threshold_pct" <<'PYEOF'
import json, os, sys

baseline_path, fresh_path, threshold = sys.argv[1], sys.argv[2], float(sys.argv[3])
with open(baseline_path) as f:
    baseline = json.load(f)
with open(fresh_path) as f:
    fresh = json.load(f)

def cached_ns(doc, floor=False):
    derived = doc.get("derived", {})
    if floor and "emulate_cached_ns_per_op_min" in derived:
        return derived["emulate_cached_ns_per_op_min"]
    return derived.get("emulate_cached_ns_per_op")

# Gate the fresh *min* against the baseline median: individual runs on
# shared/containerized hosts routinely read 15%+ hot, but a lost fast
# path slows every run, including the best one.
base, now = cached_ns(baseline), cached_ns(fresh, floor=True)
if base is None or now is None:
    print("check_perf: emulate_cached_ns_per_op missing from bench JSON", file=sys.stderr)
    sys.exit(1)

delta_pct = 100.0 * (now - base) / base
print(f"check_perf: emulate-from-cache {base:.1f} ns/op (baseline) -> "
      f"{now:.1f} ns/op (fresh min), {delta_pct:+.1f}%")
if delta_pct > threshold:
    msg = (f"bench_table3_emulation emulate-from-cache regressed "
           f"{delta_pct:.1f}% (> {threshold:.0f}% threshold)")
    if os.environ.get("CHECK_PERF_WARN_ONLY") == "1":
        print(f"WARNING (CHECK_PERF_WARN_ONLY=1): {msg}", file=sys.stderr)
    else:
        print(f"FAIL: {msg}", file=sys.stderr)
        sys.exit(1)
else:
    print("check_perf: OK")
PYEOF
