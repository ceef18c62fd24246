#!/usr/bin/env python3
"""Unit check for compare_baseline.py: the perf gate must fail LOUDLY
(exit 2, missing key named on stderr) on malformed input, pass on healthy
input, and exit 1 on genuine regressions. Registered with ctest so every
CI job runs it before the real gate consumes real bench output."""
import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "compare_baseline.py")


def sweep(ns, success=True):
    return [
        {"ops": 100, "ns_per_pass": ns, "success": success},
        {"ops": 400, "ns_per_pass": 4 * ns, "success": success},
    ]


def healthy(ns=1000000.0, exponent=1.3, sdc_ns=None):
    doc = {
        "schedule_ns_per_pass": sweep(ns),
        "schedule_ns_per_pass_sdc": sweep(sdc_ns if sdc_ns else 2 * ns),
        "schedule_ns_per_pass_sdc_warm": sweep(
            (sdc_ns if sdc_ns else 2 * ns) / 4
        ),
        "complexity": {"fitted_exponent": exponent},
    }
    return doc


class CompareBaselineTest(unittest.TestCase):
    def run_gate(self, current, baseline, *extra):
        with tempfile.TemporaryDirectory() as tmp:
            cur_path = os.path.join(tmp, "current.json")
            base_path = os.path.join(tmp, "baseline.json")
            with open(cur_path, "w") as f:
                json.dump(current, f)
            with open(base_path, "w") as f:
                json.dump(baseline, f)
            return subprocess.run(
                [sys.executable, SCRIPT, cur_path, base_path, *extra],
                capture_output=True,
                text=True,
            )

    def test_healthy_input_passes(self):
        r = self.run_gate(healthy(), healthy())
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("perf gate passed", r.stdout)

    def test_regression_fails_with_ratio(self):
        r = self.run_gate(healthy(ns=2000000.0), healthy())
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("2.00x baseline", r.stderr)

    def test_missing_metric_key_is_a_hard_error(self):
        current = healthy()
        del current["schedule_ns_per_pass"]
        r = self.run_gate(current, healthy())
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
        self.assertIn("schedule_ns_per_pass", r.stderr)

    def test_missing_entry_field_is_a_hard_error(self):
        current = healthy()
        del current["schedule_ns_per_pass"][1]["ns_per_pass"]
        r = self.run_gate(current, healthy())
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
        self.assertIn("ns_per_pass", r.stderr)

    def test_empty_metric_list_is_a_hard_error(self):
        current = healthy()
        current["schedule_ns_per_pass"] = []
        r = self.run_gate(current, healthy())
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)

    def test_missing_exponent_is_a_hard_error_by_default(self):
        current = healthy()
        del current["complexity"]
        r = self.run_gate(current, healthy())
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
        self.assertIn("fitted_exponent", r.stderr)
        # ...but tolerated with the explicit escape hatch.
        r = self.run_gate(current, healthy(), "--allow-missing-exponent")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_exponent_over_limit_fails(self):
        r = self.run_gate(healthy(exponent=2.4), healthy())
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("no longer subquadratic", r.stderr)

    def test_size_missing_from_current_fails(self):
        current = healthy()
        current["schedule_ns_per_pass"].pop()
        r = self.run_gate(current, healthy())
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("missing from current", r.stderr)

    def test_size_missing_from_baseline_fails(self):
        baseline = healthy()
        baseline["schedule_ns_per_pass"].pop()
        r = self.run_gate(healthy(), baseline)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("absent from baseline", r.stderr)

    def test_sdc_sweep_is_gated_like_the_list_sweep(self):
        r = self.run_gate(healthy(sdc_ns=8000000.0), healthy())
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("schedule_ns_per_pass_sdc", r.stderr)
        self.assertIn("4.00x baseline", r.stderr)

    def test_missing_sdc_key_is_a_hard_error(self):
        current = healthy()
        del current["schedule_ns_per_pass_sdc_warm"]
        r = self.run_gate(current, healthy())
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
        self.assertIn("schedule_ns_per_pass_sdc_warm", r.stderr)

    def test_failed_sweep_point_fails_the_gate(self):
        current = healthy()
        current["schedule_ns_per_pass_sdc"][-1]["success"] = False
        r = self.run_gate(current, healthy())
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("success:false", r.stderr)
        self.assertIn("400 ops", r.stderr)

    def test_missing_success_field_in_current_is_a_hard_error(self):
        current = healthy()
        del current["schedule_ns_per_pass"][0]["success"]
        r = self.run_gate(current, healthy())
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
        self.assertIn("success", r.stderr)

    def test_baseline_without_success_fields_is_accepted(self):
        baseline = healthy()
        for key in ("schedule_ns_per_pass", "schedule_ns_per_pass_sdc",
                    "schedule_ns_per_pass_sdc_warm"):
            for entry in baseline[key]:
                del entry["success"]
        r = self.run_gate(healthy(), baseline)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_invalid_json_is_a_hard_error(self):
        with tempfile.TemporaryDirectory() as tmp:
            cur_path = os.path.join(tmp, "current.json")
            base_path = os.path.join(tmp, "baseline.json")
            with open(cur_path, "w") as f:
                f.write("{not json")
            with open(base_path, "w") as f:
                json.dump(healthy(), f)
            r = subprocess.run(
                [sys.executable, SCRIPT, cur_path, base_path],
                capture_output=True,
                text=True,
            )
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
        self.assertIn("not valid JSON", r.stderr)


if __name__ == "__main__":
    unittest.main()
