#!/usr/bin/env python3
"""Builds and runs the IReS serving benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <asap_exec|pegasus_plan|sql_mix> \
        --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds the IReS libraries plus the benchmark
program (perfbench/CMakeLists.txt) into .bench_build/ in Release mode;
later runs only rebuild what changed. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. Exits non-zero when the build
fails, the run fails a check, or the run exceeds its time limit.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "serving_perf")
RUN_TIMEOUT_SECONDS = 170


def build():
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "serving_perf",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["asap_exec", "pegasus_plan", "sql_mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    try:
        return subprocess.run(command, cwd=ROOT,
                              timeout=RUN_TIMEOUT_SECONDS).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_SECONDS,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
