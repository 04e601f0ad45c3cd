#!/usr/bin/env python3
"""Compares parent and change runs of bench_service_load.

  python3 bench/service_load/compare.py parent.jsonl change.jsonl

Each file holds the records run.py --out appends, one run per line. The
i-th parent run of a workload is paired with its i-th change run, so run the
two sides alternately (parent first in odd pairs, change first in even ones)
and give both the same seeds.

One row per workload x metric: each side's median and quartiles, the ratio
change/parent (its base is the parent median), the pairs the change won, and
a verdict for end-to-end metrics:

  win         the change won at least 9 of 10 pairs (ties count for neither)
              and the medians differ by more than the parent's interquartile
              range
  regression  the change's median is worse than the parent's by more than the
              metric's bound in BENCHMARK.json
  unresolved  the parent's interquartile range is wider than the bound, unless
              every change run is better (win) or worse (regression) than
              every parent run
  same        otherwise

Per-layer metrics (runs with --trace 1) get the ratio only. Exits 1 if any
metric regressed. Standard library only.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                runs.setdefault((r["workload"], r["trace"]), []).append(
                    r["result"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(parent, change, spec):
    lower = spec["better"] == "lower"
    better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p))
    q1, pm, q3 = quartiles(parent)
    cm = statistics.median(change)
    worse = ((cm - pm) if lower else (pm - cm)) / pm if pm else 0.0
    bound = spec.get("bound")
    if bound is None:
        return wins, len(pairs), ""
    all_better = all(better(c, p) for c in change for p in parent)
    all_worse = all(better(p, c) for c in change for p in parent)
    won = wins >= 0.9 * len(pairs) and abs(cm - pm) > (q3 - q1) and \
        better(cm, pm)
    if pm and (q3 - q1) / pm > bound:
        if all_better and won:
            return wins, len(pairs), "win"
        if all_worse and worse > bound:
            return wins, len(pairs), "regression"
        return wins, len(pairs), "unresolved"
    if worse > bound:
        return wins, len(pairs), "regression"
    return wins, len(pairs), "win" if won else "same"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parent = load(args.parent)
    change = load(args.change)

    print("%-14s %-34s %26s %26s %8s %6s  %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "ratio", "won", "verdict"))
    regressed = False
    for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
        for w in [w["name"] for w in bench["workloads"]]:
            p_runs = parent.get((w, trace), [])
            c_runs = change.get((w, trace), [])
            if not p_runs or not c_runs:
                continue
            for spec in specs:
                p = [r["metrics"][spec["name"]]["value"] for r in p_runs]
                c = [r["metrics"][spec["name"]]["value"] for r in c_runs]
                pq1, pm, pq3 = quartiles(p)
                cq1, cm, cq3 = quartiles(c)
                wins, n, v = verdict(p, c, spec)
                regressed |= v == "regression"
                ratio = "%.3f" % (cm / pm) if pm else "-"
                print("%-14s %-34s %10.4g [%.4g, %.4g] %10.4g [%.4g, %.4g] "
                      "%8s %3d/%-2d  %s" % (w, spec["name"], pm, pq1, pq3, cm,
                                            cq1, cq3, ratio, wins, n, v))
    print("ratio = change median / parent median")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
