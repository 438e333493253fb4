#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload city_day --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds into .bench_build/perfbench (the
program is built by the repository's own CMakeLists.txt); later calls
rebuild only what changed. Build output goes to stderr, so the last line
of standard output is the benchmark's JSON result. Exits non-zero, with
no result, when the sources or the build are missing or broken.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def step(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            cwd=ROOT)
    if result.returncode != 0:
        sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
        sys.exit(result.returncode or 1)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isfile(os.path.join(ROOT, "src", "core", "ptrider.h")):
        sys.stderr.write("perfbench: the program's sources are not here "
                         "(expected CMakeLists.txt and src/ at %s)\n" % ROOT)
        sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        step(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", BUILD_DIR, "--target", target, "-j", JOBS])


def main(argv):
    if argv == ["--self-test"]:
        build("perfbench_test")
        result = subprocess.run(["ctest", "--test-dir", BUILD_DIR,
                                 "--output-on-failure", "-R", "^perfbench_"],
                                cwd=ROOT)
        return result.returncode
    build("perfbench")
    result = subprocess.run([os.path.join(BUILD_DIR, "perfbench")] + argv,
                            cwd=ROOT)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
