#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs querybench/run.py once per seed for each workload (tracing off) and, per
end-to-end metric in BENCHMARK.json, prints the median and the distance between
the first and third quartiles (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound. A benchmark is steady when every spread
other than setup_s is within its bound; the target is below a third of it.

Usage (from the repository root):
  python3 querybench/spread.py [--workloads a,b] [--seeds 1,2,3,4,5] [--seconds S]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(ROOT, "querybench", "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                cwd=ROOT)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: failed (exit {proc.returncode})")
                sys.exit(1)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={result['metrics'][name]['value']:.6g}" for name in values),
                flush=True)
        for metric in spec["end_to_end"]:
            series = values[metric["name"]]
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            verdict = "ok" if spread < metric["bound"] / 3 else (
                "within bound" if spread <= metric["bound"] else "TOO WIDE")
            print(f"  {workload:<14} {metric['name']:<14} median {median:<14.6g} "
                  f"spread {spread:.4f}  bound {metric['bound']}  {verdict}")


if __name__ == "__main__":
    main()
