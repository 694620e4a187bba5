#!/usr/bin/env python3
"""Short-mode self-test of the benchmark.

    python3 xbench/selftest.py [--seconds 1] [--seed 1]

Run from the root of a checkout. For every workload named in
BENCHMARK.json it runs the benchmark untraced and traced and checks that:
  - the last output line is the result object with exactly the keys
    correct/attempted/failed/metrics, correct true and failed 0;
  - the untraced run emits every end-to-end metric and the traced run
    every per-layer metric, each with the unit BENCHMARK.json gives it;
  - every end-to-end metric is printed as a named line with its unit;
  - the verdict tally line is the same in both runs (same seed, so the
    same inputs and verdicts).
Exits non-zero on the first workload that fails a check.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=600)
    return done.returncode, done.stdout.splitlines()


def check_run(spec, trace, code, lines):
    errors = []
    if code != 0:
        errors.append("exit code %d" % code)
    if not lines:
        return errors + ["no output"]
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return errors + ["last line is not JSON: " + lines[-1][:200]]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("result keys: %s" % sorted(result))
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append("correct=%s failed=%s" % (result.get("correct"),
                                                 result.get("failed")))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("attempted=%s" % result.get("attempted"))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(m["name"] for m in wanted):
        errors.append("metric names differ from BENCHMARK.json: %s" %
                      sorted(set(metrics) ^ {m["name"] for m in wanted}))
    for m in wanted:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"]:
            errors.append("%s unit %s, want %s" % (m["name"], got.get("unit"),
                                                   m["unit"]))
        if not isinstance(got.get("value"), (int, float)):
            errors.append("%s has no numeric value" % m["name"])
    for m in spec["end_to_end"]:
        prefix = "end_to_end %s = " % m["name"]
        if not any(l.startswith(prefix) and l.endswith(" " + m["unit"])
                   for l in lines):
            errors.append("no printed line for " + m["name"])
    return errors


def tally(lines):
    return [l for l in lines if l.startswith("tally ")]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", default="1")
    parser.add_argument("--seed", default="1")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    failed = False
    for workload in [w["name"] for w in spec["workloads"]]:
        outputs = {}
        for trace in (0, 1):
            code, lines = run(workload, args.seed, args.seconds, trace)
            outputs[trace] = lines
            errors = check_run(spec, trace, code, lines)
            for e in errors:
                print("FAIL %s trace=%d: %s" % (workload, trace, e))
            failed = failed or bool(errors)
        if not tally(outputs[0]) or tally(outputs[0]) != tally(outputs[1]):
            print("FAIL %s: tally differs between runs of seed %s" %
                  (workload, args.seed))
            failed = True
        print("%s %s" % ("FAIL" if failed else "ok", workload))
        if failed:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
