#!/usr/bin/env python3
"""Runs one workload of the repair-pipeline benchmark.

Usage, from the root of a checkout:

    python3 lr_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the lr_bench program from the checkout's sources into
.bench_build/lr_bench (configure once, incremental afterwards), runs the
workload in one single-threaded process, checks that the metric names and
units it prints are the ones BENCHMARK.json declares, and prints its JSON
result as the last line of stdout. Build output goes to stderr. A traced
run (--trace 1) leaves its Chrome trace and collapsed flamegraph in
.bench_build/traces/.

Exit status: lr_bench's (0 = every claimed success verified), or 1 when
the build fails, the sources are missing, or the result is malformed.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "lr_bench"
TRACES = ROOT / ".bench_build" / "traces"
# lr_bench starts no round after 100 s; this only catches a hang.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"lr_bench/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"repository sources not found under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    # Concurrent runs in one checkout build once, one after the other.
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(BUILD), "--target", "lr_bench",
                      "-j", jobs])
        # Keep the compiler's temporary files inside the checkout too.
        env = dict(os.environ, TMPDIR=str(BUILD / "tmp"))
        (BUILD / "tmp").mkdir(exist_ok=True)
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
                fail("build failed: " + " ".join(step))
    return BUILD / "lr_bench"


def declared_metrics(traced):
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if traced else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    command = [str(binary), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds}"]
    if args.trace:
        TRACES.mkdir(parents=True, exist_ok=True)
        command.append(f"--trace-out={TRACES / (args.workload + '.trace.json')}")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"no JSON result from lr_bench (exit {proc.returncode})")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != declared_metrics(args.trace):
        fail("printed metrics differ from BENCHMARK.json")
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
