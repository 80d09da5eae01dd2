#!/usr/bin/env python3
"""Builds and runs the Conclave query-level benchmark.

Usage (from the repository root):
  python3 querybench/run.py --workload hhi_pushdown|hhi_mpc|credit_hybrid|all \
      --seed N --seconds S --trace 0|1

The first call configures and builds querybench/ (Release) into .bench_build/;
later calls rebuild only what changed. The benchmark binary prints provenance, a
human-readable summary and, as its last stdout line, one JSON object with the
keys correct, attempted, failed and metrics. `--workload all` runs the three
workloads in turn and ends with one JSON object whose metric names are prefixed
with the workload.

Everything the benchmark writes stays under .bench_build/: the build tree,
per-seed exact counts (the cross-run gate) and, with --trace 1, a Chrome
trace-event file per run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["hhi_pushdown", "hhi_mpc", "credit_hybrid"]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "querybench")
BINARY = os.path.join(BUILD_DIR, "querybench")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; exits non-zero on failure."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "querybench"), "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            log("configure failed")
            sys.exit(1)
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", "4"],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        log("build failed")
        sys.exit(1)


def git_commit():
    """The checkout's commit, read from .git without running git; 'unknown' when
    the tree is not a git checkout."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as head:
            ref = head.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[len("ref: "):]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as packed:
            for line in packed:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def run_one(workload, seed, seconds, trace, commit):
    """Runs one workload; returns (exit code, last stdout line)."""
    # Counts are keyed by the binary's build, so a rebuilt program starts a new
    # cross-run record instead of being compared with an older program's counts.
    build_id = os.stat(BINARY).st_mtime_ns
    counts_dir = os.path.join(BUILD_ROOT, "counts")
    traces_dir = os.path.join(BUILD_ROOT, "traces")
    os.makedirs(counts_dir, exist_ok=True)
    os.makedirs(traces_dir, exist_ok=True)
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace), "--commit", commit,
               "--counts-file",
               os.path.join(counts_dir, f"{workload}-{seed}-{build_id}.txt")]
    if trace:
        command += ["--trace-file",
                    os.path.join(traces_dir, f"{workload}-{seed}.json")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return 1, ""
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    return proc.returncode, lines[-1] if lines else ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    build()
    commit = git_commit()
    if args.workload != "all":
        code, last = run_one(args.workload, args.seed, args.seconds, args.trace, commit)
        if code != 0 or not last:
            log(f"benchmark exited with code {code}")
            sys.exit(code or 1)
        print(last)
        return

    results = {}
    for workload in WORKLOADS:
        code, last = run_one(workload, args.seed, args.seconds, args.trace, commit)
        if code != 0 or not last:
            log(f"{workload}: benchmark exited with code {code}")
            sys.exit(code or 1)
        results[workload] = json.loads(last)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    print(f"\n{'workload':<14} {'metric':<30} {'value':>16}  unit")
    for workload, result in results.items():
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        fail_ratio = result["failed"] / result["attempted"]
        print(f"{workload:<14} {'fail_ratio':<30} {fail_ratio:>16.6g}  ratio")
        for name, metric in result["metrics"].items():
            print(f"{workload:<14} {name:<30} {metric['value']:>16.6g}  {metric['unit']}")
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
