#!/usr/bin/env python3
"""Builds the dmbench binary from this checkout's sources, then runs it.

Usage (from the root of a checkout):

    python3 dmbench/run.py --workload paper_cold --seed 1 --seconds 10 --trace 0
    python3 dmbench/run.py --small            # every workload, small terrain

Build output and the stores a run writes go under the directory named by
CARGO_TARGET_DIR (default .bench_build) at the checkout root. The last
line of standard output is the JSON result of the run.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    cmake_dir = os.path.join(out, "cmake")
    # Configure once per build tree; a tree whose configure failed is
    # reconfigured from scratch on the next run.
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        shutil.rmtree(cmake_dir, ignore_errors=True)
        r = subprocess.run(
            ["cmake", "-S", HERE, "-B", cmake_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            shutil.rmtree(cmake_dir, ignore_errors=True)
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    r = subprocess.run(
        ["cmake", "--build", cmake_dir, "--target", "dmbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        return None
    return os.path.join(cmake_dir, "dmbench")


def main():
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    binary = build(out)
    if binary is None:
        print("dmbench: build failed", file=sys.stderr)
        return 1
    data = os.path.join(out, "data", "run-%d" % os.getpid())
    traces = os.path.join(out, "traces")
    os.makedirs(traces, exist_ok=True)
    try:
        r = subprocess.run(
            [binary, "--data-dir", data, "--trace-dir", traces] + sys.argv[1:])
    finally:
        shutil.rmtree(data, ignore_errors=True)
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
