#!/usr/bin/env python3
"""The admission benchmark as one command.

    python3 admission_bench/run.py --workload mesh-churn --seed 1 \
        --seconds 30 --trace 0

Builds the rtsm library and the benchmark program from the checkout's
sources into .bench_build/admission_bench (Release, incremental), then runs
one workload. Build output goes to stderr; the program's report lines start
with '#' and its last stdout line is the JSON result. --trace 1 also writes
a Chrome trace-event file under .bench_build/traces/.

Workload parameters that are not compiled in (the fleet-open arrival rate)
come from workloads.json next to this script. Exits non-zero, printing no
result, when the build fails or a correctness check fails.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "admission_bench"
BINARY = BUILD / "admission_bench"
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("admission_bench: build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workloads = json.loads((HERE / "workloads.json").read_text())
    if args.workload not in workloads:
        sys.exit("admission_bench: unknown workload " + args.workload)
    build()

    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    rate = workloads[args.workload].get("rate_per_s")
    if rate is not None:
        cmd += ["--rate", str(rate)]
    if args.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"admission_bench: run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
