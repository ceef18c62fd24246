#!/usr/bin/env python3
"""Run one workload under several seeds and report each metric's spread.

For every metric in the result line this prints the median, the first and
third quartiles (statistics.quantiles(values, n=4)) and the spread
(third quartile - first quartile) / median, next to the metric's bound from
BENCHMARK.json, and marks every spread above a third of its bound. A steady
benchmark keeps every spread well below its bound.

    python3 perfbench/spread.py --workload sweep --seeds 1-10
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="range a-b or list a,b,c")
    ap.add_argument("--seconds", type=int, default=None,
                    help="defaults to run_seconds from BENCHMARK.json")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stdout + proc.stderr)
            sys.exit("seed %d: exit code %d" % (seed, proc.returncode))
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit("seed %d: output checks failed" % seed)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())), flush=True)

    print("\n%-20s %14s %14s %14s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    worst = 0.0
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds[name]
        worst = max(worst, spread / bound)
        mark = "  over bound/3" if spread > bound / 3 else ""
        print("%-20s %14.6g %14.6g %14.6g %8.4f %6s%s" % (name, med, q1, q3, spread, bound, mark))
    print("\nlargest spread / bound: %.3f" % worst)


if __name__ == "__main__":
    main()
