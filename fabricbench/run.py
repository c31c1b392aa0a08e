#!/usr/bin/env python3
"""FabricBench entry point.

Builds the benchmark package (fabricbench/CMakeLists.txt, which compiles
the simulator from ../src) into .bench_build/fabricbench, then runs one
workload and relays its output. The last stdout line is the result
object: {"correct", "attempted", "failed", "metrics"}.

    python3 fabricbench/run.py --workload mpi_mesh --seed 1 --seconds 30 --trace 0
    python3 fabricbench/run.py --self-test

Run from the repository root. --trace 1 also writes the run's spans as
Chrome-trace JSON under .bench_out/.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "fabricbench")
OUT = os.path.join(ROOT, ".bench_out")
GOLDEN = os.path.join(HERE, "golden.txt")
WORKLOADS = ("mpi_mesh", "verbs_stream", "clos_incast")
RUN_TIMEOUT_S = 170


def fail(message):
    print("fabricbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build incrementally; the log stays in BUILD."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "cluster.hpp")):
        fail("simulator sources (src/) not found next to " + HERE)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "fabricbench", "-j", "4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "fabricbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that the output checker catches corrupted results")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if args.self_test:
        cmd = [binary, "--self-test", "--golden", GOLDEN]
    else:
        os.makedirs(OUT, exist_ok=True)
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--golden", GOLDEN, "--out", OUT]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    if not args.self_test:
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            fail("the benchmark did not print a result line")
    return 0


if __name__ == "__main__":
    sys.exit(main())
