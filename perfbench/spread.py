#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each metric's spread.

    python3 perfbench/spread.py --workload table10 --runs 10 [--trace 0]

Run N uses seed N and the run length of BENCHMARK.json. For every
metric: the median of the runs and the distance between the first and
third quartile (statistics.quantiles, n=4) as a share of the median, next
to a third of the metric's bound from BENCHMARK.json. Runs go one after
another from the repository root, through the command in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    for seed in range(1, args.runs + 1):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        out = subprocess.run(cmd, capture_output=True, text=True)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        if out.returncode != 0 or not last.startswith("{"):
            sys.stderr.write(out.stderr[-2000:])
            sys.exit(f"seed {seed}: exit {out.returncode}")
        result = json.loads(last)
        shown = " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(result["metrics"].items())
                         if k in bounds)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} {shown}",
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"{'metric':40} {'median':>14} {'iqr/median':>10} {'bound/3':>8}")
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else 0.0
        bound = bounds.get(name)
        limit = f"{bound / 3:.4f}" if bound is not None else "-"
        flag = " !" if bound is not None and spread >= bound / 3 else ""
        print(f"{name:40} {med:14.6g} {spread:10.4f} {limit:>8}{flag}")


if __name__ == "__main__":
    main()
