#!/usr/bin/env python3
"""Builds and runs the closed-loop COP cluster benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The benchmark is built from source into
.bench_build/ at that root (build output goes to stderr, so the last line
of stdout stays the benchmark's JSON result). A failed build exits non-zero
without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build(target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "--target", target, "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main(argv):
    if argv == ["--self-test"]:
        if not build("perfbench_selftest"):
            return 2
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode
    if not build("copbench"):
        return 2
    sys.stdout.flush()
    return subprocess.run([os.path.join(BUILD, "copbench")] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
