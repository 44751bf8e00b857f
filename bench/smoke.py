#!/usr/bin/env python3
"""Smoke check of the benchmark itself.

Runs every workload of BENCHMARK.json at toy sizes, untraced and traced,
plus ``--workload all`` once, and asserts that each run is correct and that
every named end-to-end metric, per-layer number and text line is present.

    python3 bench/smoke.py

Exits 0 when everything is present, 1 otherwise. Takes well under a minute.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "bench", "run.py")

# lines the untraced run prints by name, per workload
TEXT_METRICS = {
    "fit": ("setup_s", "fit_s", "simulate_s", "failed_frac", "peak_rss_mb"),
    "map": ("setup_s", "simulate_s", "krige_s", "failed_frac", "peak_rss_mb"),
    "cli-batch": ("setup_s", "job_s", "cli.simulate_s", "cli.estimate_s", "cli.krige_s",
                  "cli.forecast_s", "cli.test-indep_s", "failed_frac", "peak_rss_mb"),
}


def run(workload: str, trace: int):
    argv = [sys.executable, RUN, "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, lines, ["exit %d: %s" % (proc.returncode, proc.stderr.strip()[-500:])]
    return json.loads(lines[-1]), lines, []


def check_result(result, expected: dict) -> list:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("run not correct: failed=%r" % result.get("failed"))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted is %r" % result.get("attempted"))
    metrics = result.get("metrics", {})
    for name in sorted(set(expected) - set(metrics)):
        problems.append("metric %s missing" % name)
    for name in sorted(set(metrics) - set(expected)):
        problems.append("metric %s not in BENCHMARK.json" % name)
    for name, unit in expected.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("metric %s value %r" % (name, value))
        if entry.get("unit") != unit:
            problems.append("metric %s unit %r, expected %r" % (name, entry.get("unit"), unit))
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            result, lines, problems = run(workload, trace)
            if result is not None:
                problems += check_result(result, expected)
                text = "\n".join(lines[:-1])
                if trace == 0:
                    problems += ["text metric %s missing" % m for m in TEXT_METRICS[workload]
                                 if "metric %s " % m not in text]
                elif "trace overhead" not in text:
                    problems.append("tracing overhead line missing")
            status = "ok" if not problems else "FAIL"
            print("%s %s trace=%d" % (status, workload, trace))
            for problem in problems:
                print("    " + problem)
            failures += bool(problems)
    result, _, problems = run("all", 0)
    if result is not None:
        expected = {"%s.%s" % (w["name"], k): u for w in spec["workloads"]
                    for k, u in end_to_end.items()}
        problems += check_result(result, expected)
    print("%s all trace=0" % ("ok" if not problems else "FAIL"))
    for problem in problems:
        print("    " + problem)
    failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
