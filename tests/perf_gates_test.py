#!/usr/bin/env python3
# Tests for the perf gate table (scripts/perf_gates.py): each row must
# catch a breach, keep its comparison operator at the boundary, and
# demote only wall-clock rows under CHECK_PERF_WARN_ONLY=1. Fixtures are
# BENCH_<name>.json documents built from dicts in a temp dir. Also pins
# how scripts/run_benches.sh reduces the gated fields over its runs.
import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scripts")
sys.path.insert(0, SCRIPTS)
sys.dont_write_bytecode = True  # keep scripts/ free of __pycache__
import perf_gates  # noqa: E402
from perf_gates import DEMOTABLE, ROWS, Baseline, Fresh  # noqa: E402


def put(docs, bench, path, value):
    node = docs.setdefault(bench, {})
    *parents, leaf = path.split(".")
    for key in parents:
        node = node.setdefault(key, {})
    node[leaf] = value


def passing_value(op, bound):
    return {"==": bound, "<": bound / 2, "<=": bound / 2}.get(op, bound * 2)


def breaching_value(op, bound):
    return {"==": bound + 1, "<": bound * 2, "<=": bound * 2}.get(op, bound / 2)


def row_index(bench, path):
    return next(i for i, row in enumerate(ROWS) if row[:2] == (bench, path))


class PerfGatesTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.reset()

    def reset(self):
        """Fresh and baseline documents under which every row passes."""
        self.fresh, self.base = {}, {}
        for bench, path, op, bound, _ in ROWS:
            if isinstance(bound, Fresh):
                put(self.fresh, bench, bound.field, 100.0)
                put(self.fresh, bench, path, 50.0)
            elif isinstance(bound, Baseline):
                put(self.base, bench, bound.field, 1000.0)
                put(self.fresh, bench, path, 900.0)
            else:
                put(self.fresh, bench, path, passing_value(op, bound))

    def evaluate(self, warn_only=False):
        dirs = []
        for label, docs in (("fresh", self.fresh), ("base", self.base)):
            d = os.path.join(self.tmp.name, label)
            os.makedirs(d, exist_ok=True)
            for name in os.listdir(d):
                os.remove(os.path.join(d, name))
            for bench, doc in docs.items():
                with open(os.path.join(d, f"BENCH_{bench}.json"), "w") as f:
                    json.dump(doc, f)
            dirs.append(d)
        return [verdict for verdict, _ in perf_gates.evaluate(*dirs, warn_only)]

    def verdict(self, bench, path, warn_only=False):
        return self.evaluate(warn_only)[row_index(bench, path)]

    def test_fixture_passes_every_row(self):
        self.assertEqual(self.evaluate(), ["OK"] * len(ROWS))

    def test_every_row_catches_a_breach(self):
        for i, (bench, path, op, bound, kind) in enumerate(ROWS):
            with self.subTest(bench=bench, field=path):
                self.reset()
                if isinstance(bound, Fresh):
                    put(self.fresh, bench, path, 200.0)
                elif isinstance(bound, Baseline):
                    put(self.fresh, bench, path, 1200.0)
                else:
                    put(self.fresh, bench, path, breaching_value(op, bound))
                want = ["OK"] * len(ROWS)
                want[i] = "FAIL"
                self.assertEqual(self.evaluate(), want)
                want[i] = "WARN" if kind == DEMOTABLE else "FAIL"
                self.assertEqual(self.evaluate(warn_only=True), want)

    def test_bounds_keep_their_operators_at_the_boundary(self):
        cases = [
            ("fig12_throughput", "derived.section_cache_hit_rate", 0.5, "FAIL"),
            ("ablation_section_cache", "derived.section_cache_hit_rate", 0.5, "FAIL"),
            ("table3_emulation", "derived.detector_cached_ratio", 3.0, "FAIL"),
            ("ablation_live_obs", "derived.steady_allocs", 0, "OK"),
            ("ablation_live_obs", "derived.publish_ns_per_txn", 800, "OK"),
            ("ablation_live_obs", "derived.publish_ns_per_txn", 801, "FAIL"),
            ("ablation_live_obs", "derived.live_publish_pct_of_base", 15.0, "FAIL"),
            ("ablation_live_obs", "derived.attr_publish_overhead_pct", 15.0, "FAIL"),
            ("ablation_live_obs", "derived.live_publish_overhead_pct", 24.5, "FAIL"),
            ("scaling_clients", "derived.scheduler_speedup", 2.0, "OK"),
            ("scaling_clients", "derived.scheduler_speedup", 1.99, "FAIL"),
            ("scaling_clients", "derived.events_per_sec", 100000, "OK"),
            ("scaling_clients", "derived.events_per_sec", 99999, "FAIL"),
            ("table3_emulation", "derived.emulate_cached_ns_per_op_min", 1100.0, "OK"),
            ("table3_emulation", "derived.emulate_cached_ns_per_op_min", 1100.5, "FAIL"),
            ("fig11_response_time", "wall_ms.min", 1100.0, "OK"),
            ("fig11_response_time", "wall_ms.min", 1100.5, "FAIL"),
            ("ablation_live_obs", "wall_ms.min", 1100.0, "OK"),
            ("ablation_live_obs", "wall_ms.min", 1100.5, "FAIL"),
            ("ablation_sampling", "wall_ms.min", 1100.0, "OK"),
            ("ablation_sampling", "wall_ms.min", 1100.5, "FAIL"),
            ("ablation_section_cache", "wall_ms.min", 1100.0, "OK"),
            ("ablation_section_cache", "wall_ms.min", 1100.5, "FAIL"),
        ]
        for n in (64, 1024, 16384):  # ladder == heap passes at every depth
            ladder = f"google_benchmark.BM_LadderHold/{n}.cpu_time_ns"
            cases += [("scaling_clients", ladder, 100.0, "OK"),
                      ("scaling_clients", ladder, 100.5, "FAIL")]
        for bench, path, value, want in cases:
            with self.subTest(bench=bench, field=path, value=value):
                self.reset()
                put(self.fresh, bench, path, value)
                self.assertEqual(self.verdict(bench, path), want)

    def test_only_counts_and_within_run_ratios_are_hard(self):
        hard = {(bench, path) for bench, path, _, _, kind in ROWS if kind != DEMOTABLE}
        self.assertEqual(hard, {
            ("fig12_throughput", "derived.section_cache_hit_rate"),
            ("ablation_section_cache", "derived.section_cache_hit_rate"),
            ("table3_emulation", "derived.detector_cached_ratio"),
            ("ablation_live_obs", "derived.steady_allocs"),
        })

    def test_every_paper_bench_has_a_demotable_wall_row(self):
        for bench in ("fig8_apache_profile", "fig9_squid_profile", "fig10_haboob_profile",
                      "fig11_response_time", "fig12_throughput", "table1_tpcw_profile",
                      "table2_overhead", "sec92_apache_overhead",
                      "sec93_proxy_seda_overhead"):
            row = ROWS[row_index(bench, "wall_ms.min")]
            self.assertEqual(row[2:], ("<=", Baseline("wall_ms.median"), DEMOTABLE))

    def test_every_ablation_with_a_baseline_has_a_demotable_wall_row(self):
        for bench in ("ablation_live_obs", "ablation_sampling", "ablation_section_cache"):
            row = ROWS[row_index(bench, "wall_ms.min")]
            self.assertEqual(row[2:], ("<=", Baseline("wall_ms.median"), DEMOTABLE))

    def test_missing_inputs_fail_even_when_demoted(self):
        del self.fresh["table3_emulation"]["derived"]["detector_cached_ratio"]
        del self.base["fig8_apache_profile"]
        del self.fresh["scaling_clients"]
        verdicts = self.evaluate(warn_only=True)
        for i, (bench, path, *_) in enumerate(ROWS):
            missing = (bench in ("fig8_apache_profile", "scaling_clients")
                       or path == "derived.detector_cached_ratio")
            self.assertEqual(verdicts[i], "FAIL" if missing else "OK", (bench, path))

    def run_main(self, warn_only):
        self.evaluate()
        env = dict(os.environ)
        env.pop("CHECK_PERF_WARN_ONLY", None)
        if warn_only:
            env["CHECK_PERF_WARN_ONLY"] = "1"
        return subprocess.run(
            [sys.executable, os.path.join(SCRIPTS, "perf_gates.py"),
             os.path.join(self.tmp.name, "fresh"), os.path.join(self.tmp.name, "base")],
            env=env, capture_output=True, text=True)

    def test_main_reads_warn_only_from_the_environment(self):
        put(self.fresh, "fig9_squid_profile", "wall_ms.min", 2000.0)
        self.assertEqual(self.run_main(warn_only=False).returncode, 1)
        demoted = self.run_main(warn_only=True)
        self.assertEqual(demoted.returncode, 0, demoted.stdout)
        self.assertIn("check_perf: WARN fig9_squid_profile wall_ms.min", demoted.stdout)
        self.assertEqual(len(demoted.stdout.splitlines()), len(ROWS) + 1)

        put(self.fresh, "ablation_live_obs", "derived.steady_allocs", 3)
        self.assertEqual(self.run_main(warn_only=True).returncode, 1)

    def test_main_rejects_bad_usage(self):
        done = subprocess.run([sys.executable, os.path.join(SCRIPTS, "perf_gates.py")],
                              capture_output=True, text=True)
        self.assertEqual(done.returncode, 2)


class RunBenchesTest(unittest.TestCase):
    """scripts/run_benches.sh reduces the metrics-derived fields over the
    runs instead of taking the last run's."""

    def test_live_fields_are_the_median_over_runs(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        state = os.path.join(tmp.name, "state")
        bench_dir = os.path.join(tmp.name, "build", "bench")
        out_dir = os.path.join(tmp.name, "out")
        os.makedirs(state)
        os.makedirs(bench_dir)
        # Three runs whose last one is neither the median nor the max.
        runs = [(700, 0, 2000), (500, 3, 1000), (900, 0, 3000)]
        for i, (publish, allocs, overhead) in enumerate(runs, start=1):
            gauges = {
                "bench.ablation_live_obs.base_ns_per_txn": 5000,
                "bench.ablation_live_obs.publish_ns_per_txn": publish,
                "bench.ablation_live_obs.attr_publish_ns_per_txn": publish // 2,
                "bench.ablation_live_obs.live_overhead_pct_x100": overhead,
                "bench.ablation_live_obs.steady_allocs": allocs,
            }
            with open(os.path.join(state, f"metrics_{i}.json"), "w") as f:
                json.dump({"counters": {}, "gauges": gauges}, f)
        bench = os.path.join(bench_dir, "bench_ablation_live_obs")
        with open(bench, "w") as f:
            f.write(f"""#!/bin/sh
n=$(cat '{state}/n' 2>/dev/null || echo 0)
n=$((n + 1))
echo "$n" > '{state}/n'
cp '{state}/metrics_'"$n"'.json' "$WHODUNIT_METRICS_DIR/BENCH_ablation_live_obs.metrics.json"
""")
        os.chmod(bench, 0o755)
        done = subprocess.run(
            ["sh", os.path.join(SCRIPTS, "run_benches.sh"), "-n", "3",
             "-B", os.path.join(tmp.name, "build"), "-o", out_dir, "bench_ablation_live_obs"],
            capture_output=True, text=True)
        self.assertEqual(done.returncode, 0, done.stderr)
        with open(os.path.join(out_dir, "BENCH_ablation_live_obs.json")) as f:
            derived = json.load(f)["derived"]
        self.assertEqual(derived["publish_ns_per_txn"], 700)
        self.assertEqual(derived["attr_publish_ns_per_txn"], 350)
        self.assertEqual(derived["live_publish_pct_of_base"], 14.0)
        self.assertEqual(derived["attr_publish_overhead_pct"], 7.0)
        self.assertEqual(derived["live_publish_overhead_pct"], 20.0)
        # Any allocating run fails the ==0 gate, so the max is kept.
        self.assertEqual(derived["steady_allocs"], 3)


if __name__ == "__main__":
    unittest.main()
