#!/usr/bin/env python3
"""Scheduler perf gate: compare BENCH_scheduler.json against the committed
baseline and fail on regression.

Usage: compare_baseline.py CURRENT BASELINE [--max-ratio 1.5] [--max-exponent 2.0]

Three checks:
 * per design size and per gated metric — the list sweep plus both SDC
   sweeps (cold and warm-started) — current ns_per_pass must stay within
   max-ratio of the baseline (wall-clock; sensitive to the runner's
   single-core speed — regenerate the baseline when the runner class
   changes);
 * every current sweep entry must report success:true — a sweep point
   that merely burns its pass budget without scheduling is a correctness
   failure dressed up as a timing, and its ns_per_pass is meaningless.
   This is what keeps the 6400-op SDC cold solve honest: the anchor-star
   II encoding is why that point completes at all;
 * the fitted complexity exponent must stay below max-exponent — a
   hardware-independent guard against reintroducing quadratic rescans.

Malformed input is a hard failure, not a silent pass: a bench refactor
that renames or drops a metric key must break this gate loudly (exit 2
with the missing key named), never dilute it. `--allow-missing-exponent`
is the one escape hatch, for baselines predating the complexity fit.

The explore speedup is deliberately NOT gated: it is hardware dependent
and meaningless on single-thread runners (see the speedup_meaningful
flag in the JSON).
"""
import argparse
import json
import sys

# Every gated sweep key. The SDC keys are gated exactly like the list
# figures since the sweeps cover the same size ladder (bench_micro_scheduler).
GATED_KEYS = (
    "schedule_ns_per_pass",
    "schedule_ns_per_pass_sdc",
    "schedule_ns_per_pass_sdc_warm",
)


class SchemaError(Exception):
    """A required metric key is missing or has the wrong shape."""


def per_pass_by_ops(doc, key, label, check_success):
    entries = doc.get(key)
    if entries is None:
        raise SchemaError(f"{label}: missing key '{key}'")
    if not isinstance(entries, list) or not entries:
        raise SchemaError(f"{label}: '{key}' must be a non-empty list")
    fields = ("ops", "ns_per_pass") + (("success",) if check_success else ())
    out = {}
    for i, entry in enumerate(entries):
        for field in fields:
            if not isinstance(entry, dict) or field not in entry:
                raise SchemaError(f"{label}: {key}[{i}] missing key '{field}'")
        out[entry["ops"]] = entry
    return out


def fitted_exponent(doc, label, required):
    exponent = doc.get("complexity", {}).get("fitted_exponent")
    if exponent is None and required:
        raise SchemaError(
            f"{label}: missing key 'complexity.fitted_exponent' "
            "(pass --allow-missing-exponent only for baselines that "
            "predate the complexity fit)"
        )
    return exponent


def load(path, label):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        raise SchemaError(f"{label}: cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise SchemaError(f"{label}: {path} is not valid JSON: {e}") from e


def gate_sweep(key, current, baseline, max_ratio, failures):
    """Per-size ratio check for one sweep key, appending to `failures`."""
    # The size sets must match exactly: a missing size means the bench
    # silently stopped measuring it; an extra size means the baseline is
    # stale. Either way the per-size ratios below would compare
    # incommensurate runs.
    extra = sorted(set(current) - set(baseline))
    if extra:
        failures.append(
            f"{key}: sizes {extra} present in current but absent from "
            "baseline (regenerate bench/baseline_scheduler.json)"
        )
    for ops, base_entry in sorted(baseline.items()):
        cur_entry = current.get(ops)
        if cur_entry is None:
            failures.append(f"{key}: {ops} ops missing from current results")
            continue
        if not cur_entry["success"]:
            failures.append(
                f"{key}: {ops} ops reports success:false — the sweep "
                "point failed to schedule, so its timing is meaningless"
            )
            continue
        base_ns = base_entry["ns_per_pass"]
        cur_ns = cur_entry["ns_per_pass"]
        ratio = cur_ns / base_ns if base_ns > 0 else float("inf")
        status = "FAIL" if ratio > max_ratio else "ok"
        print(
            f"{key} @ {ops:>6} ops: {cur_ns / 1e6:10.3f} ms/pass vs "
            f"baseline {base_ns / 1e6:10.3f} ms/pass ({ratio:5.2f}x) {status}"
        )
        if ratio > max_ratio:
            failures.append(
                f"{key}: {ops} ops at {ratio:.2f}x baseline "
                f"(limit {max_ratio}x)"
            )


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("current")
    ap.add_argument("baseline")
    ap.add_argument("--max-ratio", type=float, default=1.5)
    ap.add_argument("--max-exponent", type=float, default=2.0)
    ap.add_argument(
        "--allow-missing-exponent",
        action="store_true",
        help="tolerate a current file without complexity.fitted_exponent",
    )
    args = ap.parse_args()

    try:
        current_doc = load(args.current, "current")
        baseline_doc = load(args.baseline, "baseline")
        sweeps = []
        for key in GATED_KEYS:
            sweeps.append(
                (
                    key,
                    per_pass_by_ops(
                        current_doc, key, "current", check_success=True
                    ),
                    per_pass_by_ops(
                        baseline_doc, key, "baseline", check_success=False
                    ),
                )
            )
        exponent = fitted_exponent(
            current_doc, "current", required=not args.allow_missing_exponent
        )
    except SchemaError as e:
        print(f"scheduler perf gate: malformed input: {e}", file=sys.stderr)
        return 2

    failures = []
    if exponent is not None:
        status = "FAIL" if exponent >= args.max_exponent else "ok"
        print(
            f"fitted complexity exponent: {exponent:.2f} "
            f"(limit {args.max_exponent}) {status}"
        )
        if exponent >= args.max_exponent:
            failures.append(
                f"fitted exponent {exponent:.2f} >= {args.max_exponent}"
                " (pass cost is no longer subquadratic)"
            )
    for key, current, baseline in sweeps:
        gate_sweep(key, current, baseline, args.max_ratio, failures)

    if failures:
        print("\nscheduler perf gate FAILED:", file=sys.stderr)
        for msg in failures:
            print(f"  {msg}", file=sys.stderr)
        return 1
    print(f"\nscheduler perf gate passed (limit {args.max_ratio}x baseline)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
