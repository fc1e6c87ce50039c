#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread, the way its bounds are judged.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 101]
                                    [--workloads a,b] [--log FILE]

Runs every workload (or the listed ones) once per seed, seeds
first-seed .. first-seed+runs-1, with tracing off, then prints for each
end-to-end metric the median, the quartiles (statistics.quantiles, n=4) and
the spread (Q3 - Q1) / median next to the metric's bound in BENCHMARK.json.
A spread above a third of its bound (setup_s excepted) is flagged. Each
run's JSON result is appended to --log (default: no log). Run from the root
of a checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--log", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    steady = True
    for workload in names:
        values = {name: [] for name in bounds}
        failed = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                 text=True)
            if run.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {run.returncode}")
            result = json.loads(run.stdout.strip().splitlines()[-1])
            failed += result["failed"] + (0 if result["correct"] else 1)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            if args.log:
                with open(args.log, "a") as log:
                    log.write(json.dumps({"workload": workload, "seed": seed,
                                          "result": result}) + "\n")
        print(f"{workload}: {args.runs} runs, {failed} failed checks")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if name != "setup_s" and spread > bounds[name] / 3:
                flag = "  <- above a third of the bound"
                steady = False
            print(f"  {name:20s} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:.4f} "
                  f"bound {bounds[name]}{flag}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
