#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 xbench/spread.py --workload <name> [--seeds 1-10] [--seconds N]

Run from the root of a checkout. Runs the untraced benchmark once per
seed, one after another, and prints for every end-to-end metric of
BENCHMARK.json its median, its spread (distance between the first and
third quartile over the median, as statistics.quantiles(values, n=4)
gives them) and that spread as a share of the metric's bound. A metric is
steady when its spread stays below a third of its bound (setup_s is
exempt from the spread rule).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default=None)
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or str(spec["run_seconds"])
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in seeds(args.seeds):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", seconds,
             "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print("seed %d: run failed" % seed)
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print("seed %d: run failed" % seed)
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, v[-1]) for n, v in values.items())), flush=True)
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, median, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        print("%-14s median %-12.6g spread %.4f  (%.2f of bound %.2f)" %
              (m["name"], median, spread, spread / m["bound"], m["bound"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
