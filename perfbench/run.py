#!/usr/bin/env python3
"""Builds the benchmark (Release) from the checkout's sources and runs one
workload.

    python3 perfbench/run.py --workload replay-steal16 --seed 1 --seconds 10 --trace 0

Run it from the repository root.  The build lives in $CARGO_TARGET_DIR
(default .bench_build).  Build output goes to stderr; the benchmark
binary's stamp line and result line go to stdout, the result last.  Exits
non-zero, printing no result, when the sources are missing or the build,
the arithmetic self-test or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("replay-steal16", "daemon-tenants")
BUILD_JOBS = "3"
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", BUILD_JOBS],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run([os.path.join(build_dir, "perfbench_arith_test")],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans", os.path.join(spans_dir, f"{args.workload}.tsv")]
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    out = out.decode()
    if proc.returncode != 0:
        # A failed output check still prints its result (correct=false).
        sys.stdout.write(out)
        print(f"perfbench: exited with {proc.returncode}", file=sys.stderr)
        return 1
    problem = listed_metrics_problem(out, args.trace == "1")
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


def listed_metrics_problem(out, traced):
    """The binary and BENCHMARK.json must name the same metrics and units."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        listed = json.load(f)["per_layer" if traced else "end_to_end"]
    printed = json.loads(out.strip().splitlines()[-1])["metrics"]
    expected = {m["name"]: m["unit"] for m in listed}
    actual = {name: m["unit"] for name, m in printed.items()}
    if expected != actual:
        return f"metrics differ from BENCHMARK.json: {sorted(set(expected.items()) ^ set(actual.items()))}"
    return None


if __name__ == "__main__":
    sys.exit(main())
