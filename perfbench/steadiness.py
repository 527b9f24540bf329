#!/usr/bin/env python3
"""Steadiness evidence for the bounds in BENCHMARK.json.

    python3 perfbench/steadiness.py
    python3 perfbench/steadiness.py --counts

Runs every workload of BENCHMARK.json ten times for its run_seconds, with
seeds 1 to 10, and alternates the workload order between passes (forward,
then reversed) so no workload always runs first or after the same
neighbour. For each
end-to-end metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)), the spread (q3 - q1) / median, and
that spread against the metric's bound; and it checks that the share of
failed operations is the same in every run.

--counts runs the single-threaded workloads (wide-32, fuzz-campaign)
traced for 4 seconds three times, twice with one seed and once with
another, and shows which per-layer counts repeat exactly.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
FIRST_SEED = 1
COUNTS_SECONDS = 4
COUNT_METRICS = ("util.allocs_per_op", "net.msgs_per_op",
                 "net.wire_bytes_per_op", "fuzz.events_per_op",
                 "util.frames_minted_per_op", "ntcp.txns_per_op")


def run(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "1" if trace else "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("%s seed %d failed (exit %d):\n%s%s" % (
            workload, seed, done.returncode, done.stdout, done.stderr))
    return json.loads(lines[-1])


def steadiness(spec):
    workloads = [w["name"] for w in spec["workloads"]]
    results = {w: [] for w in workloads}
    for r in range(RUNS):
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for w in order:
            seed = FIRST_SEED + r
            result = run(w, seed, spec["run_seconds"], trace=False)
            results[w].append(result)
            print("pass %d %-14s seed %d correct=%s failed=%d/%d" % (
                r, w, seed, result["correct"], result["failed"],
                result["attempted"]), flush=True)
    worst = 0.0
    print("\n%-14s %-16s %14s %14s %14s %8s %7s %6s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "bound",
        "ratio"))
    for w in workloads:
        shares = {r["failed"] / r["attempted"] for r in results[w]}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results[w]]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            ratio = spread / metric["bound"]
            if name != "setup_s":
                worst = max(worst, ratio)
            print("%-14s %-16s %14.4f %14.4f %14.4f %7.2f%% %6.0f%% %6.2f" % (
                w, name, median, q1, q3, 100 * spread, 100 * metric["bound"],
                ratio))
        print("%-14s failed share per run: %s; correct in every run: %s" % (
            w, sorted(shares), all(r["correct"] for r in results[w])))
    print("\nlargest spread / bound (setup_s excluded): %.2f" % worst)


def counts():
    for w in ("wide-32", "fuzz-campaign"):
        runs = [run(w, 1, COUNTS_SECONDS, True),
                run(w, 1, COUNTS_SECONDS, True),
                run(w, 2, COUNTS_SECONDS, True)]
        for name in COUNT_METRICS:
            values = [r["metrics"][name]["value"] for r in runs]
            print("%-14s %-26s seed1 %.6f  seed1 %.6f  seed2 %.6f  %s" % (
                w, name, values[0], values[1], values[2],
                "repeats" if values[0] == values[1] else "DIFFERS"))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--counts", action="store_true")
    if parser.parse_args().counts:
        counts()
    else:
        steadiness(spec)


if __name__ == "__main__":
    main()
