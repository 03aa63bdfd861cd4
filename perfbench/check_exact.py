#!/usr/bin/env python3
"""Checks that the traced run's exact counts repeat from run to run.

    python3 perfbench/check_exact.py [--workload plan-cold] [--seed 1]

Runs perfbench/run.py --trace 1 twice per workload with the same seed and
requires the counts below to be equal in both runs, and the cache hit ratio
to be exactly 1 on plan-hot and 0 on plan-cold in both.  Exits non-zero
otherwise.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("plan-hot", "plan-cold", "validate")
EXACT = ("ctrl.replans", "ctrl.events_per_batch", "opt.outer_iterations_mean",
         "opt.outer_iterations_max", "opt.inner_iterations_mean",
         "opt.not_ok", "sim.commits_per_replica", "sim.failures_per_replica",
         "net.request_bytes", "net.response_bytes")
# The hit ratio is exact where the workload fixes it: every plan-hot request
# hits, no plan-cold request does.
HIT_RATIO = {"plan-hot": 1.0, "plan-cold": 0.0}


def traced(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        return None
    return {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args()

    ok = True
    for workload in [args.workload] if args.workload else WORKLOADS:
        runs = [traced(workload, args.seed, args.seconds) for _ in range(2)]
        if None in runs:
            print("%s: traced run failed" % workload)
            ok = False
            continue
        checks = [(name, runs[0][name], runs[1][name]) for name in EXACT]
        if workload in HIT_RATIO:
            checks.append(("svc.cache_hit_ratio", HIT_RATIO[workload],
                           runs[0]["svc.cache_hit_ratio"]))
            checks.append(("svc.cache_hit_ratio", HIT_RATIO[workload],
                           runs[1]["svc.cache_hit_ratio"]))
        for name, a, b in checks:
            print("%-10s %-28s %-22r %-22r %s" % (
                workload, name, a, b, "ok" if a == b else "DIFFERS"))
            ok = ok and a == b
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
