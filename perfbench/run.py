#!/usr/bin/env python3
"""Build and run the end-to-end benchmark for one workload.

    python3 perfbench/run.py --workload build_k4 --seed 1 --seconds 12 --trace 0

Run from the repository root. The first call configures and compiles the
library sources and perfbench/usne_perfbench.cpp into .bench_build/perfbench
(Release); later calls reuse that build. The benchmark binary prints a
"record" line (stamp, every metric, every gate) and, as the last line of
standard output, the result object {"correct", "attempted", "failed",
"metrics"}. With --trace 1 the span dump is written to
.bench_build/traces/<workload>.seed<seed>.json.

Exits non-zero when the build fails, the library sources are missing, or any
correctness gate fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "usne_perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "usne.hpp")):
        sys.exit("perfbench: library sources (src/) not found next to perfbench/")
    log = sys.stderr
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=log, stderr=log, timeout=600)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"],
                   check=True, stdout=log, stderr=log, timeout=900)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build failed: {e}")

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}.seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=170,
                              text=True)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: benchmark run timed out")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"perfbench: no output (exit code {proc.returncode})")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result line")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
