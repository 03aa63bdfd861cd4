#!/usr/bin/env python3
"""One-command runner of the mlcrd benchmark.

    python3 perfbench/run.py --workload plan-hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --test

Run it from the root of a repository checkout.  On first use it builds the
benchmark (perfbench/CMakeLists.txt: the repository's src/ libraries plus the
benchmark binary, Release) under $CARGO_TARGET_DIR (default .bench_build),
then runs it.  Its last stdout line is the JSON result; the exit code
is non-zero when the build, the run or a correctness check fails.  See
perfbench/NOTES.md for the workloads and metrics.
"""
import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("plan-hot", "plan-cold", "validate")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures and builds once, under a lock; later calls are no-ops."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no src/ next to perfbench/; run from a repository "
              "checkout", file=sys.stderr)
        return None
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, env=env).returncode:
                print("run.py: build failed: " + " ".join(step),
                      file=sys.stderr)
                return None
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.test and None in (args.workload, args.seed, args.seconds,
                                  args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    out = build()
    if out is None:
        return 1
    if args.test:
        return subprocess.run([os.path.join(out, "test_core")]).returncode

    command = [os.path.join(out, "mlcrd_bench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans",
                    os.path.join(out, "spans-%s.tsv" % args.workload)]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: the run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
