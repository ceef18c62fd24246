#!/usr/bin/env python3
"""Sensitivity self-test: the benchmark must see a slowdown that changes no result.

Each case switches on a public option that makes the program slower without
changing what it computes, runs both sides on identical work (same seed, a
fixed number of work units), alternating sides, and requires that

  * the slow side's median points_per_s is worse than the normal side's by
    more than points_per_s's bound in BENCHMARK.json, and
  * every quality metric (feasible_frac, decided_frac, ok_frac, area_per_op,
    delay_ns) is identical on every run of both sides.

fig9 is the exception to the first rule: on this tree cold passes cost fig9
only about 5% (about 5% more timing queries), inside points_per_s's bound,
so that case runs traced and requires the deterministic per-layer count
sched.timing_queries to rise instead, and prints the end-to-end drop.

Cases:
  fig9   FlowOptions::warm_start = false                (variant "cold")
  sweep  the sweep's configurations through FlowSession, warm_start off vs on
         (variants "run-cold" vs "run-warm"; ExploreConfig has no switch)
  serve  ServerOptions::threads = 1 instead of 2         (variant "threads1");
         the first epoch's line stream must also be byte-identical

Pass counts are deliberately not compared: on the SDC backend warm and cold
runs can take different numbers of passes to the same schedule.

    python3 perfbench/selftest.py            # all cases, about 6 minutes
    python3 perfbench/selftest.py serve      # one case
"""
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
QUALITY = ["feasible_frac", "decided_frac", "ok_frac", "area_per_op", "delay_ns"]
PAIRS = 4
SEED = 3

# name: (workload, units, normal variant, slow variant, end-to-end resolvable)
CASES = {
    "fig9": ("fig9", 2, None, "cold", False),
    "sweep": ("sweep", 3, "run-warm", "run-cold", True),
    "serve": ("serve", 1, None, "threads1", True),
}


def run(workload, units, variant, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", "1" if trace else "0",
           "--units", str(units)]
    if variant:
        cmd += ["--variant", variant]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit("%s %s: exit code %d" % (workload, variant, proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("%s %s: output checks failed" % (workload, variant))
    digest = re.search(r"^digest: fnv1a64=(\w+)", proc.stdout, re.M).group(1)
    # The end-to-end metrics are printed by name in every run; a traced
    # run's result line holds the per-layer ones.
    metrics = {m.group(1): float(m.group(2)) for m in
               re.finditer(r"^%s/(\S+) = (\S+)" % workload, proc.stdout, re.M)}
    return metrics, digest


def check_case(name, bound):
    workload, units, normal, slow, resolvable = CASES[name]
    sides = {"normal": [], "slow": []}
    for i in range(PAIRS):
        order = [("normal", normal), ("slow", slow)]
        if i % 2:
            order.reverse()
        for side, variant in order:
            sides[side].append(run(workload, units, variant, trace=not resolvable))
    ok = True
    base = statistics.median(m["points_per_s"] for m, _ in sides["normal"])
    slowed = statistics.median(m["points_per_s"] for m, _ in sides["slow"])
    drop = 1.0 - slowed / base
    flagged = drop > bound
    print("%s: points_per_s %.4g -> %.4g (%.1f%% worse, bound %.0f%%): %s" % (
        name, base, slowed, 100 * drop, 100 * bound, "flagged" if flagged else "not flagged"))
    if resolvable:
        ok &= flagged
    else:
        queries = {side: {m["sched.timing_queries"] for m, _ in runs} for side, runs in sides.items()}
        rose = (len(queries["normal"]) == 1 and len(queries["slow"]) == 1 and
                min(queries["slow"]) > max(queries["normal"]))
        print("%s: sched.timing_queries %s -> %s: %s" % (
            name, sorted(queries["normal"]), sorted(queries["slow"]),
            "rose" if rose else "DID NOT RISE"))
        ok &= rose
    reference = sides["normal"][0][0]
    for side in sides.values():
        for metrics, _ in side:
            for q in QUALITY:
                if metrics[q] != reference[q]:
                    print("%s: %s differs: %r vs %r" % (name, q, metrics[q], reference[q]))
                    ok = False
    if name == "serve":
        digests = {d for side in sides.values() for _, d in side}
        if len(digests) != 1:
            print("serve: line streams differ between 1 and 2 worker threads: %s" % sorted(digests))
            ok = False
    print("%s: %s" % (name, "pass" if ok else "FAIL"))
    return ok


def main():
    names = sys.argv[1:] or list(CASES)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    results = [check_case(n, bounds["points_per_s"]) for n in names]
    sys.exit(0 if all(results) else 1)


if __name__ == "__main__":
    main()
