#!/usr/bin/env python3
"""Builds and runs the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload ingest-hotspot --seed 1 \
        --seconds 50 --trace 0

The build (CMake, Release) lands in .bench_build/perfbench and is a no-op
after the first run. Build output goes to stderr; the benchmark's own
report goes to stderr too, and the last line of stdout is the result
object {"correct", "attempted", "failed", "metrics"}. Spans of a traced
run and a result record per run (shape, environment, metrics with their
sample counts) are written under .bench_out/.

Exit codes: 0 ok, 1 benchmark failure, 2 usage, 3 the checkout has no
library sources or the build failed.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD_DIR = os.path.join(".bench_build", "perfbench")
OUT_DIR = ".bench_out"
RUN_TIMEOUT_S = 170  # a run must end within 180 s, build excluded


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "graphsketch.h")):
        print("run.py: no library sources under ./src; run from the root "
              "of a full checkout", file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not build():
        return 3
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("run.py: benchmark exited with %d" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        print("run.py: malformed result line", file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
