#!/usr/bin/env python3
"""Steadiness check: run the benchmark in sets of seeds and compare them.

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10] [--seconds S]

Runs `perfbench/run.py` in two sets of `runs` runs per workload, each run
with its own seed (seeds 1, 2, ... across both sets). For every end-to-end
metric it prints each set's median, first and third quartile (Python's
`statistics.quantiles(values, n=4)`) and the spread, the quartile distance
as a share of the median. It then checks the bounds of BENCHMARK.json:

  * each set's spread stays within the metric's bound, and
  * the two sets' medians differ by at most the bound, as a share of the
    smaller median.

Exits 0 when every check holds, 1 otherwise (or when a run failed).
Defaults come from BENCHMARK.json: all workloads, its run_seconds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Sets of runs compared.
SETS = 2


def spread(values):
    """(q1, median, q3, (q3 - q1) / median) of a list of numbers."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return q1, med, q3, ((q3 - q1) / med if med else float("inf"))


def differ_by(first, second):
    """How far apart two medians are, as a share of the smaller one."""
    low = min(first, second)
    if low == 0:
        return 0.0 if first == second else float("inf")
    return abs(second - first) / low


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=1000)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        tail = (r.stderr.strip().splitlines() or ["no output"])[-1]
        return None, "exit %d: %s" % (r.returncode, tail)
    return json.loads(lines[-1]), None


def check(spec, results):
    """Print the table for one workload and return the failed checks.
    `results[k]` is the list of result objects of set k."""
    problems = []
    for m in spec["end_to_end"]:
        name = m["name"]
        per_set = [[r["metrics"][name]["value"] for r in rs] for rs in results]
        if any(len(v) < 2 for v in per_set):
            continue
        stats = [spread(v) for v in per_set]
        cells = "  ".join("set%d med %.6g q1 %.6g q3 %.6g spread %.3f" % (k, s[1], s[0], s[2], s[3])
                          for k, s in enumerate(stats))
        print("  %-34s %s" % (name, cells))
        bound = m["bound"]
        for k, s in enumerate(stats):
            if s[3] > bound:
                problems.append("%s: set %d spread %.3f > bound %.3f" % (name, k, s[3], bound))
        d = differ_by(stats[0][1], stats[1][1])
        if d > bound:
            problems.append("%s: set medians differ by %.3f > bound %.3f" % (name, d, bound))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    problems = []
    for w in workloads:
        results = []
        for k in range(SETS):
            rs = []
            for i in range(args.runs):
                seed = 1 + k * args.runs + i
                res, err = run_once(w, seed, args.seconds)
                if err:
                    problems.append("%s seed %d: %s" % (w, seed, err))
                    print("%s seed %d failed: %s" % (w, seed, err), flush=True)
                else:
                    rs.append(res)
            results.append(rs)
        print("%s (%d sets of %d runs, %d s each)" % (w, SETS, args.runs, args.seconds))
        problems += ["%s %s" % (w, p) for p in check(spec, results)]
    print("steady: %s" % ("all checks hold" if not problems else "%d problems" % len(problems)))
    for p in problems:
        print("  " + p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
