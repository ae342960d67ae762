#!/usr/bin/env python3
"""Exact-count gate over the synth_batch workload of the repository benchmark.

    python3 scripts/check_counts.py

For every seed in BENCH_counts.json it runs the file's traced command (the
layer counts) and its untraced command (solved_frac, which only untraced
runs report) through perfbench/run.py, and compares each recorded value
exactly. At a fixed seed these values repeat on any host, so a difference
is a change in behaviour, not noise. A change that moves a count on purpose
records the new value in BENCH_counts.json and says why.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTS = ROOT / "BENCH_counts.json"


def fail(message):
    print(f"count gate: {message}", file=sys.stderr)
    sys.exit(1)


def run(command, seed):
    """The metric values of one benchmark run, which must be correct."""
    argv = command.replace("SEED", seed).split()
    out = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0 or not out.stdout.strip():
        fail(f"seed {seed}: '{' '.join(argv)}' failed")
    result = json.loads(out.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        fail(f"seed {seed}: run not correct ({result['failed']} failed)")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    if sys.argv[1:]:
        fail("usage: check_counts.py")
    spec = json.loads(COUNTS.read_text())
    differences = []
    for seed, recorded in spec["seeds"].items():
        got = run(spec["traced"], seed)
        got.update(run(spec["untraced"], seed))
        for name, value in recorded.items():
            if name not in got:
                fail(f"seed {seed}: no metric {name}")
            if got[name] != value:
                differences.append(f"seed {seed} {name}: recorded {value}, "
                                   f"now {got[name]}")
    if differences:
        fail("counts differ from BENCH_counts.json:\n  " +
             "\n  ".join(differences))
    print(f"count gate: {len(spec['seeds'])} seeds match BENCH_counts.json")


if __name__ == "__main__":
    main()
