#!/usr/bin/env python3
"""Steadiness check: runs the benchmark on several seeds and prints each
metric's median and run-to-run spread (interquartile range over median).

    python3 perfbench/spread.py --workload paper_knee [--runs 10] [--seconds S]
                                [--trace 0] [--first-seed 1]

A metric is steady when its spread is below a third of its bound in
BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

import benchstats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, help="default: run_seconds in BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print("seed %d: run.py exited %d" % (seed, proc.returncode))
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d done" % seed, flush=True)
    worst = 0.0
    for name, xs in values.items():
        mid = benchstats.median(xs)
        s = benchstats.spread(xs) if mid != 0 else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound:
            ratio = s / bound
            worst = max(worst, ratio)
            flag = "spread/bound=%.2f%s" % (ratio, "  > 1/3" if ratio > 1 / 3 else "")
        print("%-34s median=%-14.8g spread=%-8.4f %s" % (name, mid, s, flag))
    print("worst spread/bound: %.2f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())
