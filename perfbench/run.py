#!/usr/bin/env python3
"""Build and run the tune-serving benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload warm-unique --seed 1 --seconds 35 --trace 0

Builds perfbench/ (which compiles ../src) into .bench_build/perfbench
with CMake, then runs one measurement. The benchmark binary prints host
facts, run facts and the answer-check verdict, and as its last line one
JSON object: {"correct", "attempted", "failed", "metrics"}. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKDIR = ROOT / ".bench_build" / "run"
# Cap on one measurement; a run normally takes under a minute.
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build the benchmark; build output to stderr."""
    configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "tune_serving_bench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return BUILD / "tune_serving_bench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["warm-unique", "warm-repeat", "cold-drift"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(WORKDIR)]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
