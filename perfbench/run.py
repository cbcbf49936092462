#!/usr/bin/env python3
"""Builds the HYPPO end-to-end benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload explore-higgs --seed 1 \
        --seconds 30 --trace 0

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. `--trace 1` reports per-layer metrics
instead of end-to-end ones and writes the run's spans to
`.bench_build/traces/<workload>-seed<seed>.json` (or `--trace-out`).
`--workload all` runs every workload in turn and ends with one JSON object
whose metric names are prefixed by the workload. Everything the benchmark
builds or writes stays under `.bench_build/`. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["explore-higgs", "session-taxi-durable", "serve-sweeps"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "cmake")
BINARY = os.path.join(BUILD_DIR, "hyppo_perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; build logs go to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "hyppo_perfbench"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            print("build step failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def run_one(workload, seed, seconds, trace, trace_out):
    """Runs one workload; returns (exit code, stdout lines)."""
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--work-dir", os.path.join(BUILD_ROOT, "work")]
    if trace:
        command += ["--trace-out", trace_out or os.path.join(
            BUILD_ROOT, "traces", "%s-seed%d.json" % (workload, seed))]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("%s: timed out after %d s" % (workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 1, []
    return done.returncode, done.stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args()

    if not build():
        return 1
    if args.workload != "all":
        code, lines = run_one(args.workload, args.seed, args.seconds,
                              args.trace, args.trace_out)
        print("\n".join(lines), flush=True)
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        code, lines = run_one(workload, args.seed, args.seconds, args.trace,
                              "")
        print("\n".join(lines[:-1]), flush=True)
        if code != 0 or not lines:
            return code or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "." + name] = metric
    print(json.dumps(combined), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
