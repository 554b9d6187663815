#!/usr/bin/env python3
"""Check that results/ reproduces from the current build.

Usage:
  check_results.py ROOT BENCH_DIR TOOLS_DIR

ROOT is the repository; BENCH_DIR holds the bench_* binaries and TOOLS_DIR
chtread_sim and chtread_fuzz. Everything runs inside a temporary directory:

  - every bench with a ROOT/results/<bench>.txt file, at full scale: its
    stdout without the `artifact:` line must equal that file (trailing
    blank lines ignored);
  - the CI bench-smoke job's commands (every bench at --smoke, chtread_sim,
    chtread_fuzz): every artifact they write must equal the file of the same
    name in ROOT/results/baseline/ byte for byte, and the two sets of names
    must match.

Every run is a deterministic function of its seed, so any difference means
the committed results are stale. Exit 1 names each file that differs and
prints its first differing line, expected and got.
Python standard library only.
"""

import filecmp
import os
import pathlib
import subprocess
import sys
import tempfile


def run(cmd, cwd):
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        sys.exit("FAIL: %s exited %d\n%s" % (" ".join(map(str, cmd)),
                                             proc.returncode, proc.stderr))
    return proc.stdout


def text_lines(text):
    lines = [l for l in text.splitlines() if not l.startswith("artifact:")]
    while lines and not lines[-1].strip():
        lines.pop()
    return lines


def first_difference(expected, got):
    """Report lines for the first line where `expected` and `got` differ."""
    i = next((i for i, (e, g) in enumerate(zip(expected, got)) if e != g),
             min(len(expected), len(got)))
    at = lambda lines: lines[i] if i < len(lines) else "<end>"
    return ["  line %d:" % (i + 1),
            "    expected: %s" % at(expected),
            "    got:      %s" % at(got)]


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    root, bench_dir, tools_dir = (pathlib.Path(a).resolve()
                                  for a in sys.argv[1:])
    results = root / "results"
    baseline = results / "baseline"
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        full = pathlib.Path(tmp) / "full"
        smoke = pathlib.Path(tmp) / "smoke"
        full.mkdir()
        smoke.mkdir()
        for expected in sorted(results.glob("bench_*.txt")):
            out = run([bench_dir / expected.stem], full)
            want, got = text_lines(expected.read_text()), text_lines(out)
            if got != want:
                problems.append("%s differs from `%s` stdout"
                                % (expected.relative_to(root), expected.stem))
                problems += first_difference(want, got)

        # The bench-smoke job's commands (.github/workflows/ci.yml).
        for bench in sorted(bench_dir.glob("bench_*")):
            if bench.is_file() and os.access(bench, os.X_OK):
                name = bench.name[len("bench_"):]
                run([bench, "--smoke", "--out=BENCH_%s.json" % name], smoke)
        run([tools_dir / "chtread_sim", "--n=5", "--ops=60",
             "--workload=mixed", "--seed=7", "--metrics-out=BENCH_sim.json"],
            smoke)
        run([tools_dir / "chtread_fuzz", "--protocol=all", "--profile=calm",
             "--seeds=2", "--ops=30", "--artifact-dir=",
             "--metrics-out=BENCH_fuzz.json"], smoke)

        fresh = {p.name for p in smoke.glob("*.json")}
        pinned = {p.name for p in baseline.glob("*.json")}
        for name in sorted(pinned - fresh):
            problems.append("results/baseline/%s: no command writes it" % name)
        for name in sorted(fresh - pinned):
            problems.append("results/baseline/%s is missing" % name)
        for name in sorted(fresh & pinned):
            if not filecmp.cmp(smoke / name, baseline / name, shallow=False):
                problems.append("results/baseline/%s differs from the fresh "
                                "artifact" % name)
                problems += first_difference(
                    (baseline / name).read_text().splitlines(),
                    (smoke / name).read_text().splitlines())
        checked = (len(list(results.glob("bench_*.txt"))), len(fresh))

    if problems:
        print("results/ is stale; rerun the benches and commit their output:")
        for p in problems:
            print("  " + p)
        return 1
    print("ok: %d results/*.txt files and %d baseline artifacts reproduce"
          % checked)
    return 0


if __name__ == "__main__":
    sys.exit(main())
