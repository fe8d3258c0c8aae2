#!/usr/bin/env python3
"""Builds and runs the ATENA end-to-end benchmark.

    python3 perfbench/run.py --workload train|serve_cold|serve_durable \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and compiles the
libraries under src/ plus the benchmark binary into .bench_build/perfbench
(Release); later runs rebuild incrementally. The binary's output is passed
through, so the last stdout line is the result JSON. Scratch files (the
serving journal, snapshots) live in .bench_build/perfbench-run-<pid> and
are removed when the run ends.
"""
import argparse
import multiprocessing
import os
import subprocess
import sys

WORKLOADS = ("train", "serve_cold", "serve_durable")
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no ATENA sources (src/) next to perfbench/")
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    jobs = str(min(4, multiprocessing.cpu_count()))
    for command in (
        ["cmake", "-S", bench_dir, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ):
        # Build logs go to stderr: stdout carries the benchmark's output.
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed")

    command = [
        os.path.join(build_dir, "atena_perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--workdir", os.path.join(root, ".bench_build",
                                  "perfbench-run-%d" % os.getpid()),
    ]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
