#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and report its spread.

    python3 bench/stability.py [--workloads cli-small,search] [--runs 10]
        [--first-seed 1] [--record LABEL --commit SHA]

Run from the root of a checkout.  For each workload it runs
`bench/run.py --trace 0` once per seed, then prints, for every end-to-end
metric, the median, the quartiles (`statistics.quantiles(n=4)`) and the
spread, that is the distance between the quartiles as a share of the
median, next to the metric's bound from BENCHMARK.json.  Spreads above a
third of the bound are flagged.

With `--record`, the medians and quartiles are appended to
bench/results.json as one entry of the benchmark's trajectory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed checks\n"
                         f"{proc.stdout}")
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--record", default=None)
    parser.add_argument("--commit", default=None)
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in bench["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    summary = {}
    for workload in names:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in seeds:
            start = time.perf_counter()
            result = run_once(workload, seed, bench["run_seconds"])
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed} ({time.perf_counter() - start:.0f} s, "
                  f"{result['attempted']} attempted): " + ", ".join(
                      f"{name}={vals[-1]:.4g}" for name, vals in values.items()),
                  flush=True)
        summary[workload] = {}
        for metric in bench["end_to_end"]:
            vals = values[metric["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < metric["bound"] / 3 else "  <-- above bound/3"
            print(f"{workload:<11} {metric['name']:<18} median {med:12.4f} "
                  f"q1 {q1:12.4f} q3 {q3:12.4f} spread {spread:7.4f} "
                  f"bound {metric['bound']}{flag}", flush=True)
            summary[workload][metric["name"]] = {
                "median": med, "q1": q1, "q3": q3, "unit": metric["unit"]}
    if args.record:
        path = os.path.join(HERE, "results.json")
        with open(path, encoding="utf-8") as fh:
            results = json.load(fh)
        results["trajectory"].append({
            "label": args.record, "commit": args.commit, "seeds": seeds,
            "run_seconds": bench["run_seconds"],
            "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                       f"Python {platform.python_version()}",
            "workloads": summary})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
