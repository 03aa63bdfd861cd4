#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the bounds are checked.

    python3 perfbench/spread.py --workload validate --runs 10 [--first-seed 1]

Runs perfbench/run.py once per seed (seeds first-seed .. first-seed+runs-1,
untraced), then prints per metric the median, the quartiles
(statistics.quantiles(values, n=4)), the spread (Q3 - Q1) / median and the
metric's bound from BENCHMARK.json.  Exits non-zero if a run fails.
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
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or not result.get("correct"):
            print(proc.stdout + proc.stderr, file=sys.stderr)
            print("seed %d failed" % seed, file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        calm = [line for line in lines if line.startswith("calm:")]
        print("seed %d: %s (%s)" % (seed, " ".join(
            "%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items()),
            calm[0] if calm else "calm: ?"), flush=True)

    print("%-22s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3",
                                            "spread", "bound"))
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        print("%-22s %12.5g %12.5g %12.5g %8.4f %6s" % (
            name, statistics.median(vals), q1, q3, spread,
            bounds.get(name, "-")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
