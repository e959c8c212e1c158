#!/usr/bin/env python3
"""Builds the repo benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The library (../src) and the benchmark
binary are built with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later runs rebuild incrementally. The binary's
output is passed through, and its final JSON line is checked against
BENCHMARK.json (exactly the declared metrics, with their units) before it is
printed. A run that fails a correctness check prints its "correct": false
line and exits 1; a failed build, a run past the time limit, or output that
does not match BENCHMARK.json exits 1 without a result line.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    source = os.path.join(root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", source, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configure failed")
    compiled = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "widen_perfbench",
         "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if compiled.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "widen_perfbench")


def expected_metrics(root, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in entries}


def check_result(line, expected):
    result = json.loads(line)
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)}")
    if not result["correct"]:
        fail("a correctness check failed")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int):
            fail(f"{key} is not a whole number")
    if result["attempted"] < 1:
        fail("nothing attempted")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail(f"metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(expected) - set(got))}, "
             f"extra {sorted(set(got) - set(expected))}, "
             f"units {[n for n in got if n in expected and got[n] != expected[n]]}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    binary = build(root, build_dir)
    expected = expected_metrics(root, args.trace == 1)

    workdir = os.path.join(root, target, "perfbench-work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        run = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", workdir],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    if run.returncode != 0:
        # A failed correctness check still reports its result line.
        if lines[-1].startswith('{"correct": false'):
            print(lines[-1], flush=True)
        fail(f"benchmark exited with {run.returncode}")
    check_result(lines[-1], expected)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
