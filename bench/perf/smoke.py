#!/usr/bin/env python3
"""bench_perf_smoke: every workload at --scale=smoke, run three times.

    python3 bench/perf/smoke.py path/to/bench_perf

Checks that
  - each workload of BENCHMARK.json runs and passes its correctness checks;
  - every metric it emits is declared in BENCHMARK.json with the same unit,
    and every declared metric is emitted;
  - the same seed run twice gives identical simulated-time metrics and
    counts;
  - a traced run reproduces the untraced run's simulated-time metrics and
    counts exactly and writes a readable Chrome trace.
Python standard library only.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def run(binary, tmp, name, extra=()):
    out = os.path.join(tmp, name + ".json")
    cmd = [binary, "--workload=all", "--seed=3", "--scale=smoke",
           "--out=" + out, *extra]
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, check=False)
    if proc.returncode != 0 or not os.path.isfile(out):
        sys.exit("FAIL: %s exited %d" % (" ".join(cmd), proc.returncode))
    with open(out) as f:
        return {w["workload"]: w for w in json.load(f)["workloads"]}


def exact(record):
    return {k: m["value"] for k, m in record["metrics"].items()
            if m["kind"] != "wall"}


def differing(a, b):
    return sorted(k for k in a if a[k] != b.get(k))


def main():
    binary = sys.argv[1]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: m["unit"]
                for m in spec["end_to_end"] + spec["per_layer"]}
    problems = []
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        first = run(binary, tmp, "first")
        second = run(binary, tmp, "second")
        trace = os.path.join(tmp, "trace.json")
        traced = run(binary, tmp, "traced", ["--trace-out=" + trace])
        names = [w["name"] for w in spec["workloads"]]
        if sorted(first) != sorted(names):
            problems.append("workloads %s, BENCHMARK.json declares %s"
                            % (sorted(first), sorted(names)))
        for name, record in first.items():
            emitted = {k: m["unit"] for k, m in record["metrics"].items()}
            for k, unit in emitted.items():
                if declared.get(k) != unit:
                    problems.append("%s: %s [%s] is not declared" % (name, k, unit))
            for k in declared.keys() - emitted.keys():
                problems.append("%s: declared %s is not emitted" % (name, k))
            if not record["correct"] or record["failed"]:
                problems.append("%s: failed %d of %d: %s" % (
                    name, record["failed"], record["attempted"], record["errors"]))
            base = exact(record)
            for label, other in (("second run", second), ("traced run", traced)):
                diff = differing(base, exact(other[name]))
                if diff:
                    problems.append("%s: %s differs in %s" % (name, label, diff))
            path = os.path.join(tmp, "trace.%s.json" % name)
            with open(path) as f:
                if not json.load(f)["traceEvents"]:
                    problems.append("%s: empty trace" % name)
    for p in problems:
        print("FAIL: " + p)
    if problems:
        sys.exit(1)
    print("bench_perf_smoke: %d workloads, %d metrics each: ok"
          % (len(first), len(declared)))


if __name__ == "__main__":
    main()
