#!/usr/bin/env python3
"""Steadiness check: runs every workload repeatedly and reports how much
each metric moves between runs.

    python3 e2e_bench/steady.py --runs 10 --seconds 20
    python3 e2e_bench/steady.py --runs 5 --workloads dense-skew --trace

Run i uses seed base+i and runs the workloads in turn, reversing their order
on every other run so no workload always follows the same one. For each
end-to-end metric it prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the spread, the interquartile range as
a share of the median, next to the metric's bound in BENCHMARK.json: a
spread above a third of the bound is flagged, except for setup_s. It also
checks that the share of failed operations is the same in every run.

--trace adds one traced run per untraced one and prints the per-layer
medians, plus the traced run's own cost: the lazy and eager per-algorithm
throughputs of the traced runs against lazy_tput and eager_tput of the
untraced ones.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAZY = ["npj", "prj", "mway", "mpass"]
EAGER = ["shj-jm", "shj-jb", "pmj-jm", "pmj-jb"]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("run failed (exit %d): %s" % (done.returncode, " ".join(cmd)))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("incorrect result: " + " ".join(cmd))
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None,
                        help="defaults to run_seconds in BENCHMARK.json")
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; defaults to all")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in spec["workloads"]])

    results = {w: [] for w in workloads}
    traced = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            results[w].append(run_once(w, args.seed_base + i, seconds, False))
            if args.trace:
                traced[w].append(run_once(w, args.seed_base + i, seconds,
                                          True))
            print("run %d %s done" % (i, w), file=sys.stderr)

    worst = 0.0
    for w in workloads:
        runs = results[w]
        shares = {r["failed"] / r["attempted"] for r in runs}
        print("\n## %s: %d runs of %d s, failed share %s" %
              (w, len(runs), seconds,
               "constant %.6f" % shares.pop() if len(shares) == 1
               else "VARIES %s" % sorted(shares)))
        print("%-20s %12s %12s %12s %8s %6s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, sp = spread(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and sp > bound / 3:
                flag = "  > bound/3"
                worst = max(worst, sp / bound)
            print("%-20s %12.5g %12.5g %12.5g %7.1f%% %5.0f%%%s" %
                  (name, med, q1, q3, 100 * sp,
                   100 * bound if bound is not None else float("nan"), flag))
        if args.trace and traced[w]:
            print("\nper-layer medians (traced runs):")
            for name in traced[w][0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in traced[w]]
                med, q1, q3, sp = spread(values)
                print("  %-36s %12.5g  spread %5.1f%%" % (name, med, 100 * sp))
            for group, e2e in ((LAZY, "lazy_tput"), (EAGER, "eager_tput")):
                t = statistics.median(
                    geomean([r["metrics"]["join.%s.tput" % a]["value"]
                             for a in group]) for r in traced[w])
                u = statistics.median(r["metrics"][e2e]["value"] for r in runs)
                print("tracing cost on %s: traced %.5g vs untraced %.5g "
                      "inputs/ms (%+.1f%%)" % (e2e, t, u, 100 * (t / u - 1)))
    return 1 if worst > 0 else 0


if __name__ == "__main__":
    sys.exit(main())
