#!/usr/bin/env python3
"""Builds and runs the spnhbm benchmark.

Run from the repository root:

    python3 spnbench/run.py --workload batch-dense --seed 1 --seconds 30 --trace 0
    python3 spnbench/run.py --self-test

The first call configures and builds the benchmark (and the library layers
it drives, from ../src) into .bench_build/ with CMake in Release mode; later
calls rebuild incrementally. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. Traced runs write their spans to
.bench_build/spans/, and batch runs leave result digests in
.bench_build/digests/ so dense and sparse runs of one seed are compared.
--self-test builds and runs the benchmark's own unit tests instead.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "spnbench")
BUILD = os.path.join(ROOT, ".bench_build")
# A run must end well inside the three minutes it is allowed.
RUN_TIMEOUT_S = 170


def build(target):
    """Configures (once) and builds `target`; False when either step fails."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            # Leave no half-configured tree behind for the next call.
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    command = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def run(command):
    """Runs `command`, passing its stdout through; returns its exit code."""
    with subprocess.Popen(command) as process:
        try:
            return process.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
            print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 124


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        if not build("spnbench_tests"):
            return 2
        return run([os.path.join(BUILD, "spnbench_tests")])
    if not args.workload:
        parser.error("--workload is required")
    if not build("spnbench"):
        return 2

    command = [os.path.join(BUILD, "spnbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--digest-dir", os.path.join(BUILD, "digests")]
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--spans-out",
                    os.path.join(spans, f"{args.workload}-seed{args.seed}.jsonl")]
    return run(command)


if __name__ == "__main__":
    sys.exit(main())
