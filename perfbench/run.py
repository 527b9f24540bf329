#!/usr/bin/env python3
"""Build nees_perfbench from this checkout and run one workload.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first run configures and builds
the benchmark (Release) under .bench_build/perfbench; later runs only check
that the build is current. Build output goes to stderr; the workload's own
output, ending in one JSON result line, goes to stdout.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKDIR = os.path.join(ROOT, ".bench_build", "run")
WORKLOADS = ("most-paper", "wide-32", "farm-100", "fuzz-campaign")
RUN_TIMEOUT_S = 175


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no program sources under %s/src; run from a checkout"
                 % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                    "--target", "nees_perfbench", "checks_test"],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        sys.exit("run.py: --seed must be >= 0 and --seconds > 0")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit("run.py: build failed: %s" % error)

    os.makedirs(WORKDIR, exist_ok=True)
    command = [os.path.join(BUILD, "nees_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--workdir", WORKDIR]
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: %s did not finish within %d s"
                 % (args.workload, RUN_TIMEOUT_S))
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
