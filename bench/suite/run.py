#!/usr/bin/env python3
"""Build bench_suite from source and run one workload of it.

    python3 bench/suite/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout. The first call configures and builds the
simulator library and bench_suite under .bench_build/ (a Release build);
later calls only let the build tool confirm it is up to date. Scratch files
(spill tier, checkpoints, traces, compiler temporaries) also stay under
.bench_build/.

The last line of stdout is bench_suite's one-line JSON result, and the exit
code is bench_suite's (1 when a correctness check failed). A failed build
exits nonzero without printing a result.
"""

import argparse
import os
import shutil
import subprocess
import sys

BUILD_ROOT = ".bench_build"
SUITE_DIR = os.path.join("bench", "suite")
BUILD_DIR = os.path.join(BUILD_ROOT, "cmake")
BINARY = os.path.join(BUILD_DIR, "bench_suite")
# Compile jobs: the host's cores, but never more than 4 so a build stays
# light on memory shared with other processes.
JOBS = max(1, min(4, os.cpu_count() or 1))


def build():
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SUITE_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "bench_suite",
                  "-j", str(JOBS)])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the benchmark.
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.exit("run.py: build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "core", "simulator.hpp")):
        sys.exit("run.py: run from the repository root (src/ not found)")
    # Compiler temporaries too stay inside the checkout.
    os.makedirs(os.path.join(BUILD_ROOT, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.abspath(os.path.join(BUILD_ROOT, "tmp"))
    build()

    tmpdir = os.path.join(BUILD_ROOT, "tmp", f"{args.workload}-{args.seed}")
    os.makedirs(tmpdir, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--tmpdir", tmpdir]
    if args.trace:
        command += ["--trace", os.path.join(tmpdir, "trace.json")]
    # bench_suite prints its own result line last (with "correct": false
    # and exit code 1 when a check failed; no result line if it crashed).
    sys.stdout.flush()
    sys.exit(subprocess.run(command).returncode)


if __name__ == "__main__":
    main()
