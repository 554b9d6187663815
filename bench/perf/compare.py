#!/usr/bin/env python3
"""Compares two sets of bench_perf runs against the bounds in BENCHMARK.json.

    python3 bench/perf/compare.py --base A1.json A2.json ... \
                                  --new  B1.json B2.json ...

Each file is a bench_perf --out artifact (BENCH_perf.json); a file may hold
several workloads. Runs pair up in the order given (base[i] with new[i]),
so take them alternately. For each workload and end-to-end metric it prints
both sides' median and quartiles, the share of pairs the new side wins
(ties count for neither) and a label:

  regressed   the new median is worse than the base median by more than the
              metric's bound
  improved    at least 10 pairs, the new side wins at least 9 in 10 of them,
              and its median is better by more than the base runs' quartile
              spread (Q3 - Q1)
  unresolved  either side's quartile spread, as a share of its median, is
              wider than the bound, and not every new run beats every base
              run
  no-worse    otherwise

Simulated-time metrics and counts (kind sim or count) must match exactly
between runs of the same workload and seed; every mismatch is listed.
Exits 1 on any regression or mismatch. Python standard library only.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load(paths):
    """Returns {workload: [record, ...]} in file order."""
    runs = {}
    for path in paths:
        with open(path) as f:
            for record in json.load(f)["workloads"]:
                runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def describe(values):
    q1, q2, q3 = quartiles(values)
    return "%.6g [%.6g, %.6g]" % (q2, q1, q3)


def label(base, new, bound, higher):
    def better(a, b):
        return a > b if higher else a < b
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if better(n, b))
    win_frac = wins / len(pairs) if pairs else 0.0
    b1, bmed, b3 = quartiles(base)
    nmed = statistics.median(new)
    worse_by = (bmed - nmed if higher else nmed - bmed) / abs(bmed) if bmed else 0.0
    every = all(better(n, b) for n in new for b in base)
    if worse_by > bound:
        verdict = "regressed"
    elif (len(pairs) >= 10 and win_frac >= 0.9 and better(nmed, bmed)
          and abs(nmed - bmed) > b3 - b1):
        verdict = "improved"
    elif max(spread(base), spread(new)) > bound and not every:
        verdict = "unresolved"
    else:
        verdict = "no-worse"
    return win_frac, worse_by, verdict


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, new = load(args.base), load(args.new)

    bad = False
    row = "%-13s %-13s %28s %28s %7s %5s  %s"
    print(row % ("workload", "metric", "base median [Q1, Q3]",
                 "new median [Q1, Q3]", "worse", "wins", "label"))
    for workload in sorted(base.keys() & new.keys()):
        for m in spec["end_to_end"]:
            name = m["name"]
            b = [r["metrics"][name]["value"] for r in base[workload]]
            n = [r["metrics"][name]["value"] for r in new[workload]]
            win_frac, worse_by, verdict = label(
                b, n, m["bound"], m["better"] == "higher")
            bad = bad or verdict == "regressed"
            print(row % (workload, name, describe(b), describe(n),
                         "%+.1f%%" % (100 * worse_by), "%.2f" % win_frac,
                         verdict))

    mismatches = []
    for workload in sorted(base.keys() & new.keys()):
        by_seed = {r["seed"]: r for r in base[workload]}
        for r in new[workload]:
            other = by_seed.get(r["seed"])
            if other is None or other["scale"] != r["scale"]:
                continue
            for name, m in r["metrics"].items():
                if m["kind"] == "wall":
                    continue
                was = other["metrics"].get(name, {}).get("value")
                if was != m["value"]:
                    mismatches.append("%s seed %s %s: %s -> %s" % (
                        workload, r["seed"], name, was, m["value"]))
    for line in mismatches:
        print("count mismatch: " + line)
    if not mismatches:
        print("sim-time metrics and counts: identical for every shared seed")
    sys.exit(1 if bad or mismatches else 0)


if __name__ == "__main__":
    main()
