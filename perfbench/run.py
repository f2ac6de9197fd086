#!/usr/bin/env python3
"""Serve-loop benchmark: builds and runs one workload, prints its result.

Builds perfbench/ (a CMake project over the repository's src/ tree) into
.bench_build/perfbench, runs one workload in its own process, checks the
result and prints it as the last line of stdout:

    python3 perfbench/run.py --workload live_sessions --seed 1 --seconds 15 --trace 0

--trace 0 reports the end-to-end metrics and --trace 1 the per-layer
ones (perfbench/README.md lists both).  A run whose checks fail, or
whose process crashes, still prints a result with "correct": false and
exits 1.  Without a src/ tree next to perfbench/ it exits 2 and prints
no result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench_serve")
WORKLOADS = ("live_sessions", "hd_playback", "lossy_conference", "idle_fleet")
RUN_TIMEOUT_S = 175


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench_serve",
                    "-j", jobs], check=True, stdout=sys.stderr)


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return sorted(m["name"] for m in spec["per_layer" if trace else "end_to_end"])


def parse_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    if not isinstance(result, dict) or set(result) != keys:
        return None
    return result


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no src/ tree next to perfbench/ to build",
              file=sys.stderr)
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]

    problems = []
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        problems.append(f"no result within {RUN_TIMEOUT_S} s")
    lines = out.splitlines()
    result = parse_result(lines[-1]) if lines else None
    for line in lines[:-1] if result is not None else lines:
        print(line)
    if proc.returncode != 0:
        problems.append(f"perfbench_serve exited with code {proc.returncode}")
    if result is None:
        problems.append("no result line")
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    else:
        names = expected_metrics(args.trace)
        if names is not None and sorted(result["metrics"]) != names:
            problems.append("metrics differ from those BENCHMARK.json declares")
    if problems:
        result["correct"] = False
        for p in problems:
            print(f"perfbench: {p}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
