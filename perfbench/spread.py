#!/usr/bin/env python3
"""Measures the run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10]

Runs perfbench/run.py untraced for BENCHMARK.json's run_seconds once per
(workload, seed), one run at a time, and prints for every end-to-end
metric its median, its quartile spread -- the distance between the first
and third quartile (statistics.quantiles, n=4) as a share of the median --
and its bound from BENCHMARK.json. Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_from(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds_from(args.seeds):
            run = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, cwd=ROOT)
            if run.returncode != 0:
                sys.exit(f"{workload} seed {seed}: run.py failed")
            result = json.loads(run.stdout.splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: incorrect result")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
                flush=True)
        for name, series in values.items():
            median = statistics.median(series)
            spread = 0.0
            if len(series) >= 2 and median != 0:
                q1, _, q3 = statistics.quantiles(series, n=4)
                spread = (q3 - q1) / median
            print(f"{workload:13s} {name:26s} median={median:<12.6g} "
                  f"spread={spread:.3f} bound={bounds[name]}")


if __name__ == "__main__":
    main()
