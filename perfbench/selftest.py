#!/usr/bin/env python3
"""Self-test of the benchmark's report.

Checks, from the root of a checkout:
  * BENCHMARK.json names the same workloads and metrics as run.py;
  * a short run of each mode prints every metric by name with its unit,
    and its result line carries exactly the declared metrics;
  * a forced output-check failure raises failed_ratio and the exit code.

Usage: python3 perfbench/selftest.py
It runs the proxy_seda workload, the quickest to run. Exit code 0 when
every check holds.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402

WORKLOAD = "proxy_seda"

# Every metric the benchmark's specification names, by mode.
NAMED = {
    0: [n for n, _ in run.END_TO_END] + [n for n, _ in run.INFO],
    1: [n for n, _ in run.PER_LAYER] + [n for n, _ in run.INFO],
}

problems = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        problems.append(what)


def bench(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(run.DEFAULT_SEED), "--seconds", "1", "--trace", str(trace)] + list(extra)
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    return p.returncode, lines, json.loads(lines[-1]) if lines else None


def printed_metrics(lines):
    """name -> unit for every `metric <name> <value> <unit>` line."""
    out = {}
    for line in lines:
        m = re.match(r"metric (\S+)\s+(\S+) (\S+)", line)
        if m:
            out[m.group(1)] = m.group(3)
    return out


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS),
           "BENCHMARK.json workloads match run.py")
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END,
           "BENCHMARK.json end_to_end matches run.py")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER,
           "BENCHMARK.json per_layer matches run.py")

    for trace, declared in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        code, lines, result = bench(WORKLOAD, trace)
        expect(code == 0 and result is not None and result["correct"],
               "trace=%d run passes its output checks" % trace)
        if result is None:
            continue
        units = printed_metrics(lines)
        missing = [n for n in NAMED[trace] if n not in units]
        expect(not missing, "trace=%d prints every named metric with a unit %s"
               % (trace, missing or ""))
        expect({n: {"unit": u} for n, u in declared} ==
               {n: {"unit": v["unit"]} for n, v in result["metrics"].items()},
               "trace=%d result line carries exactly the declared metrics" % trace)
        expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
               "trace=%d metric values are numbers" % trace)
        expect(result["failed"] == 0 and units.get("failed_ratio") is not None,
               "trace=%d failed_ratio printed, no failed runs" % trace)

    code, lines, result = bench(WORKLOAD, 0, "--force-fail")
    ratio = [l for l in lines if l.startswith("metric failed_ratio")]
    expect(code != 0, "forced check failure exits non-zero (exit %d)" % code)
    expect(result is not None and not result["correct"] and result["failed"] > 0,
           "forced check failure counted in the result line")
    expect(bool(ratio) and float(ratio[0].split()[2]) > 0, "forced check failure raises failed_ratio")

    print("selftest: %s" % ("ok" if not problems else "%d problem(s)" % len(problems)))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
