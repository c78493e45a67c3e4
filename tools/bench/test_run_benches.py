#!/usr/bin/env python3
"""Unit tests for run_benches.py's pure logic: metric direction inference,
fnmatch threshold resolution, baseline comparison (thresholded and
--exact), and the micro benches' summary and informational compare.

Run directly or via ctest (bench_driver_selftest).  Dependency-free; no
bench binaries are executed.
"""

from __future__ import annotations

import io
import os
import sys
import unittest
from contextlib import redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run_benches  # noqa: E402


class MetricDirection(unittest.TestCase):
    def test_rates_are_higher_is_better(self):
        self.assertEqual(run_benches.metric_direction("msgs_per_sec"), "higher")
        self.assertEqual(run_benches.metric_direction("speedup_x"), "higher")

    def test_latencies_and_ratios_are_lower_is_better(self):
        self.assertEqual(run_benches.metric_direction("p99_ms"), "lower")
        self.assertEqual(run_benches.metric_direction("rtt_ms_mean"), "lower")
        self.assertEqual(run_benches.metric_direction("cpu_pct"), "lower")
        self.assertEqual(run_benches.metric_direction("slope"), "lower")

    def test_unknown_metrics_have_no_direction(self):
        self.assertIsNone(run_benches.metric_direction("n_clients"))
        self.assertIsNone(run_benches.metric_direction("bytes_total"))


class ThresholdFor(unittest.TestCase):
    THRESHOLDS = {
        "*": 25.0,
        "fig3_roundtrip.*": 10.0,
        "fig3_roundtrip.p99_ms": 5.0,
        "*.msgs_per_sec": 15.0,
    }

    def test_longest_matching_pattern_wins(self):
        self.assertEqual(
            run_benches.threshold_for(
                "fig3_roundtrip", "p99_ms", self.THRESHOLDS, 99.0), 5.0)
        self.assertEqual(
            run_benches.threshold_for(
                "fig3_roundtrip", "p50_ms", self.THRESHOLDS, 99.0), 10.0)
        self.assertEqual(
            run_benches.threshold_for(
                "table1_throughput", "msgs_per_sec", self.THRESHOLDS, 99.0),
            15.0)

    def test_fallbacks(self):
        self.assertEqual(
            run_benches.threshold_for(
                "table1_throughput", "weird", self.THRESHOLDS, 99.0), 25.0)
        self.assertEqual(
            run_benches.threshold_for("b", "weird", {}, 7.5), 7.5)


class CompareMetrics(unittest.TestCase):
    def compare(self, baseline, fresh, threshold=10.0, thresholds=None):
        buf = io.StringIO()
        with redirect_stdout(buf):
            n = run_benches.compare_metrics(
                baseline, fresh, threshold, thresholds or {})
        return n, buf.getvalue()

    def test_within_threshold_is_clean(self):
        n, _ = self.compare({"b": {"p99_ms": 100.0}}, {"b": {"p99_ms": 105.0}})
        self.assertEqual(n, 0)

    def test_lower_is_better_regression(self):
        n, out = self.compare(
            {"b": {"p99_ms": 100.0}}, {"b": {"p99_ms": 150.0}})
        self.assertEqual(n, 1)
        self.assertIn("REGRESSION b.p99_ms", out)

    def test_higher_is_better_regression(self):
        n, out = self.compare(
            {"b": {"msgs_per_sec": 1000.0}}, {"b": {"msgs_per_sec": 800.0}})
        self.assertEqual(n, 1)
        self.assertIn("REGRESSION b.msgs_per_sec", out)

    def test_improvement_is_reported_not_failed(self):
        n, out = self.compare(
            {"b": {"p99_ms": 100.0}}, {"b": {"p99_ms": 50.0}})
        self.assertEqual(n, 0)
        self.assertIn("improved", out)

    def test_per_metric_threshold_overrides_default(self):
        thresholds = {"b.p99_ms": 100.0}
        n, _ = self.compare(
            {"b": {"p99_ms": 100.0}}, {"b": {"p99_ms": 150.0}},
            thresholds=thresholds)
        self.assertEqual(n, 0)  # +50% allowed by the override

    def test_missing_bench_and_metric_are_informational(self):
        n, out = self.compare(
            {"old_bench": {"p99_ms": 1.0}, "b": {"p99_ms": 1.0}},
            {"new_bench": {"p99_ms": 9.0}, "b": {"p99_ms": 1.0, "extra": 3}})
        self.assertEqual(n, 0)
        self.assertIn("only in baseline", out)
        self.assertIn("only in fresh run", out)
        self.assertIn("metric added", out)

    def test_directionless_and_non_numeric_metrics_are_skipped(self):
        n, _ = self.compare(
            {"b": {"n_clients": 4, "label": "x"}},
            {"b": {"n_clients": 400, "label": "y"}})
        self.assertEqual(n, 0)

    def test_thresholds_key_is_not_a_bench(self):
        n, _ = self.compare(
            {run_benches.THRESHOLDS_KEY: {"*": 1.0}, "b": {"p99_ms": 1.0}},
            {"b": {"p99_ms": 1.0}})
        self.assertEqual(n, 0)


class CompareExact(unittest.TestCase):
    def compare(self, baseline, fresh):
        buf = io.StringIO()
        with redirect_stdout(buf):
            n = run_benches.compare_exact(baseline, fresh)
        return n, buf.getvalue()

    def test_identical_metrics_pass(self):
        run = {"b": {"p99_ms": 12.5, "n_clients": 4, "label": "x"}}
        n, _ = self.compare(run, {"b": dict(run["b"])})
        self.assertEqual(n, 0)

    def test_any_drift_fails_in_either_direction(self):
        n, out = self.compare(
            {"b": {"p99_ms": 100.0, "msgs_per_sec": 50.0}},
            {"b": {"p99_ms": 99.0, "msgs_per_sec": 50.5}})
        self.assertEqual(n, 2)  # both moves are "improvements"
        self.assertIn("MISMATCH b.p99_ms", out)
        self.assertIn("MISMATCH b.msgs_per_sec", out)

    def test_directionless_metrics_are_checked(self):
        n, out = self.compare({"b": {"n_clients": 4}}, {"b": {"n_clients": 5}})
        self.assertEqual(n, 1)
        self.assertIn("MISMATCH b.n_clients", out)

    def test_thresholds_are_ignored(self):
        baseline = {run_benches.THRESHOLDS_KEY: {"*": 1000.0},
                    "b": {"p99_ms": 100.0}}
        n, _ = self.compare(baseline, {"b": {"p99_ms": 100.001}})
        self.assertEqual(n, 1)

    def test_missing_or_added_metric_is_a_mismatch(self):
        n, out = self.compare({"b": {"p50_ms": 1.0, "old": 2.0}},
                              {"b": {"p50_ms": 1.0, "new": 3.0}})
        self.assertEqual(n, 2)
        self.assertIn("MISMATCH b.old", out)
        self.assertIn("MISMATCH b.new", out)

    def test_non_numeric_values_and_unrun_benches_are_skipped(self):
        n, out = self.compare(
            {"b": {"label": "x", "flag": True}, "other": {"p50_ms": 1.0}},
            {"b": {"label": "y", "flag": False}})
        self.assertEqual(n, 0)
        self.assertIn("other: only in baseline", out)


class MicroBenches(unittest.TestCase):
    @staticmethod
    def row(name, cpu_time, unit="ns", run_type="iteration"):
        return {"name": name, "run_name": name, "run_type": run_type,
                "cpu_time": cpu_time, "time_unit": unit}

    def test_median_and_quartiles_of_the_repetitions_in_ns(self):
        report = {"benchmarks": [self.row("BM_A/1", t) for t in (5, 1, 4, 2, 3)]
                  + [self.row("BM_A/1", 99.0, run_type="aggregate"),
                     self.row("BM_B", 2.0, unit="us")]}
        metrics = run_benches.summarize_micro(report)
        self.assertEqual(metrics["BM_A/1.median_ns"], 3.0)
        self.assertEqual(metrics["BM_A/1.q1_ns"], 2.0)
        self.assertEqual(metrics["BM_A/1.q3_ns"], 4.0)
        self.assertEqual(metrics["BM_A/1.repetitions"], 5)
        self.assertEqual(metrics["BM_B.median_ns"], 2000.0)
        self.assertEqual(metrics["BM_B.q3_ns"], 2000.0)

    def test_micro_benches_are_printed_and_never_fail_a_compare(self):
        baseline = {"micro_codec": {"BM_A.median_ns": 100.0, "BM_A.q1_ns": 1}}
        fresh = {"micro_codec": {"BM_A.median_ns": 300.0, "BM_A.q1_ns": 2}}
        for compare in (
                lambda: run_benches.compare_metrics(baseline, fresh, 10.0, {}),
                lambda: run_benches.compare_exact(baseline, fresh)):
            buf = io.StringIO()
            with redirect_stdout(buf):
                self.assertEqual(compare(), 0)
            self.assertIn("informational micro_codec.BM_A.median_ns: "
                          "100 -> 300 (3.00x)", buf.getvalue())
            self.assertNotIn("q1_ns", buf.getvalue())


if __name__ == "__main__":
    unittest.main()
