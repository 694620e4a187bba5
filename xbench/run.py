#!/usr/bin/env python3
"""Builds and runs the xmlup benchmark.

    python3 xbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds the
xmlup library and the xbench binary (Release) into .bench_build, or
into $CARGO_TARGET_DIR when that is set; later calls only re-check the
build. The binary's output is passed through unchanged: human-readable
lines, then one JSON result object as the last line. The exit code is the
binary's, or non-zero without a result when the build fails (for example
in a directory that holds only the benchmark).
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds xbench; returns its path or None."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "xbench",
                  "-j", BUILD_JOBS])
    for step in steps:
        # Build chatter goes to stderr so stdout stays the benchmark's.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("xbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return None
    return os.path.join(out, "xbench")


def main(argv):
    binary = build()
    if binary is None:
        return 3
    return subprocess.run([binary] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
