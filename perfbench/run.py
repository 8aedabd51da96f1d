#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <serve-loopback|sweep-grid|cluster-ab> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds into
.bench_build/perfbench (RelWithDebInfo); later runs rebuild incrementally.
Build output goes to stderr, so the last line of stdout is the benchmark's
JSON result. The exit code is the benchmark's: nonzero when the build, a
request or a correctness check failed.

    python3 perfbench/run.py --selftest

builds and runs the self-tests of the benchmark's helpers instead.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
JOBS = "4"


def build(target):
    """Configures (once) and builds `target`; returns False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", JOBS])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build step failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main(argv):
    if argv == ["--selftest"]:
        if not build("perfbench_selftest"):
            return 2
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode
    if not build("perfbench"):
        return 2
    sys.stdout.flush()
    return subprocess.run([os.path.join(BUILD, "perfbench")] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
