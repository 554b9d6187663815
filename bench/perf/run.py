#!/usr/bin/env python3
"""Builds bench_perf from source and runs one workload of BENCHMARK.json.

    python3 bench/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build), resolved against the checkout root. With --trace 0
the result carries every end-to-end metric of BENCHMARK.json, with --trace 1
every per-layer metric. The last line of standard output is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Exits non-zero, without a result, if the sources are missing, the build
fails or bench_perf crashes. Python standard library only.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
# Building from scratch may take most of the first run's allowance.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout):
    """Runs cmd with stdout sent to stderr; kills its whole process group
    on timeout. Returns the exit code, or None on timeout."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the library sources (src/) are missing from " + ROOT)
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        rc = run(["cmake", "-S", HERE, "-B", build_dir,
                  "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
        if rc != 0:
            fail("cmake configure failed")
    rc = run(["cmake", "--build", build_dir, "--target", "bench_perf",
              "-j", str(os.cpu_count() or 1)],
             max(1.0, deadline - time.monotonic()))
    if rc != 0:
        fail("build failed")
    return os.path.join(build_dir, "bench_perf")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)
    tag = "%s_%d_%d" % (args.workload, args.seed, args.trace)
    out_path = os.path.join(build_dir, "perf_%s.json" % tag)
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds, "--out=" + out_path]
    if args.trace:
        cmd.append("--trace-out=" + os.path.join(build_dir,
                                                 "trace_%s.json" % tag))
    if os.path.exists(out_path):
        os.remove(out_path)
    rc = run(cmd, RUN_TIMEOUT_S)
    # bench_perf exits 1 when a correctness check failed; the result then
    # reports correct: false.
    if rc not in (0, 1) or not os.path.isfile(out_path):
        fail("bench_perf did not finish (exit %s)" % rc)
    with open(out_path) as f:
        record = json.load(f)["workloads"][0]

    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail("bench_perf does not report %s in %s" % (m["name"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
