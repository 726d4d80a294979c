#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload once at a tiny scale.

    python3 perfbench/smoke.py

Runs each workload named in BENCHMARK.json untraced and traced, and
checks that the result line carries every metric BENCHMARK.json names,
with its unit; that every metric run.py defines for the workload is
printed with its unit; that every output check passed (failed_ratio 0);
that the artifact digest is printed; and that nothing is reported
against a stored baseline.  Exits 1 on any problem.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the metric tables)

SCALE = "0.001"


def check_run(bench, workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--scale", SCALE]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    if proc.returncode != 0:
        return ["exit code %d" % proc.returncode]
    problems = []
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append("checks: %s" % {k: result[k] for k in ("correct", "attempted", "failed")})
    wanted = bench["per_layer" if trace else "end_to_end"]
    if {m["name"] for m in wanted} != set(result["metrics"]):
        problems.append("result metrics %s differ from BENCHMARK.json"
                        % sorted(set(result["metrics"]) ^ {m["name"] for m in wanted}))
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if not got or got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            problems.append("metric %s: %s" % (m["name"], got))
    table = (run.PER_LAYER if trace else run.END_TO_END) + [("failed_ratio", "ratio", "*")]
    text = "\n".join(lines[:-1])
    for name, unit, only in table:
        if only in (None, "*") or workload in only:
            if not re.search(r"^\s+%s\s+\S+\s+%s(\s|$)" % (re.escape(name), re.escape(unit)),
                             text, re.M):
                problems.append("not printed with its unit: %s" % name)
    if not re.search(r"^\s+failed_ratio\s+0\s", text, re.M):
        problems.append("failed_ratio is not 0")
    if not re.search(r"^\s+digest artifacts\s+[0-9a-f]{32}$", text, re.M):
        problems.append("no artifact digest")
    if "baseline" in proc.stdout.lower():
        problems.append("output mentions a baseline")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failed = False
    for w in bench["workloads"]:
        for trace in (0, 1):
            problems = check_run(bench, w["name"], trace)
            print("smoke %-12s trace %d: %s" % (w["name"], trace,
                                                "ok" if not problems else "FAIL"))
            for p in problems:
                print("    " + p)
            failed = failed or bool(problems)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
