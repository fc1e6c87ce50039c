#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds
perfbench/ (which pulls in src/) with CMake under the build directory
($CARGO_TARGET_DIR if set, else .bench_build); later calls rebuild
incrementally. The benchmark binary runs one workload in one process whose
thread pool is sized to the machine's cores, checks its outputs, and prints
one line per metric; the last line of standard output is the JSON result.
Build output goes to standard error. Exits non-zero if the build or the
run fails, or if the metrics printed differ from BENCHMARK.json's lists.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# Variables that would resize the thread pool or turn on the library's
# global trace, metrics or ledger recording behind the benchmark's back.
CLEARED_ENV = ("DSEM_THREADS", "DSEM_TRACE", "DSEM_METRICS", "DSEM_LEDGER")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(target):
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    steps = [["cmake", "--build", out, "-j", jobs, "--target", target]]
    # Configure once; `cmake --build` re-runs the configure step itself
    # when a CMakeLists.txt changes.
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(out, target)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def self_test(env):
    """The unit tests, then one end-to-end run with a corrupted answer,
    which must come back incorrect with a failed check counted."""
    tests = build("perfbench_selftest")
    if subprocess.run([tests], cwd=ROOT, env=env).returncode != 0:
        fail("self-test: unit tests failed")
    binary = build("dsem_perfbench")
    run = subprocess.run(
        [binary, "--workload", "paper_pipeline", "--seed", "1", "--seconds",
         "1", "--trace", "0", "--inject-wrong-answer"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=RUN_TIMEOUT_S)
    result = json.loads(run.stdout.strip().splitlines()[-1])
    if run.returncode != 0 or result["correct"] or result["failed"] < 1:
        fail(f"self-test: an injected wrong answer was not caught: {result}")
    print("self-test: unit tests pass; an injected wrong answer is caught "
          f"({result['failed']} failed of {result['attempted']})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    if args.self_test:
        self_test(env)
        return
    if not args.workload:
        fail("--workload is required")

    binary = build("dsem_perfbench")
    spans_dir = os.path.join(build_dir(), "spans")
    os.makedirs(spans_dir, exist_ok=True)
    command = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--expected-digests", os.path.join(HERE, "expected_digests.json"),
        "--spans-dir", spans_dir,
    ]
    try:
        run = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} ran past {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail(f"workload {args.workload} exited with {run.returncode}")

    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    if sorted(result["metrics"]) != sorted(want):
        fail(f"metrics {sorted(result['metrics'])} differ from "
             f"BENCHMARK.json {sorted(want)}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
