"""Tests for the benchmark's own helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchlib  # noqa: E402
import run  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
    SPEC = json.load(f)


class SummaryTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        q1, med, q3 = statistics.quantiles(values, n=4)
        s = benchlib.summary(values)
        self.assertEqual((s["q1"], s["median"], s["q3"]), (q1, med, q3))
        self.assertEqual((s["min"], s["max"], s["n"]), (1.0, 9.0, 7))

    def test_single_sample(self):
        s = benchlib.summary([2.5])
        self.assertEqual((s["q1"], s["median"], s["q3"], s["n"]), (2.5, 2.5, 2.5, 1))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            benchlib.summary([])


class PercentileTest(unittest.TestCase):
    def test_inclusive_interpolation(self):
        values = list(range(1, 102))  # 1..101
        self.assertEqual(benchlib.percentile(values, 50), 51)
        self.assertEqual(benchlib.percentile(values, 90), 91)

    def test_tail_picks_p90_with_ten_beyond(self):
        values = [float(i) for i in range(1, 101)]  # 100 samples
        p, v, beyond, n = benchlib.tail_percentile(values)
        self.assertEqual((p, n), (90, 100))
        self.assertGreaterEqual(beyond, 10)
        # One percentile higher leaves fewer than ten samples beyond.
        v91 = benchlib.percentile(values, 91)
        self.assertLess(sum(1 for x in values if x > v91), 10)

    def test_tail_grows_with_sample_count(self):
        p_small = benchlib.tail_percentile([float(i) for i in range(200)])[0]
        p_large = benchlib.tail_percentile([float(i) for i in range(2000)])[0]
        self.assertLess(p_small, p_large)
        self.assertEqual(p_large, 99)

    def test_too_few_samples_name_no_tail(self):
        p, v, beyond, n = benchlib.tail_percentile([3.0, 1.0, 2.0])
        self.assertIsNone(p)
        self.assertEqual((v, beyond, n), (2.0, 0, 3))

    def test_tail_value_caps_at_p90_and_falls_back(self):
        big = [float(i) for i in range(1000)]
        self.assertEqual(benchlib.tail_value(big), (90, benchlib.percentile(big, 90)))
        forty = [float(i) for i in range(40)]
        p, v = benchlib.tail_value(forty)
        self.assertLess(p, 90)
        self.assertGreaterEqual(sum(1 for x in forty if x > v), 10)
        few = [4.0, 1.0, 3.0]
        self.assertEqual(benchlib.tail_value(few), (50, 3.0))
        # 13 samples keep 10 beyond only below the median: report the median.
        thirteen = [float(i) for i in range(13)]
        self.assertEqual(benchlib.tail_value(thirteen), (50, 6.0))

    def test_ties_do_not_count_as_beyond(self):
        # Only the 9 samples above the tied block can ever lie beyond.
        self.assertIsNone(benchlib.tail_percentile([1.0] * 50 + [2.0] * 9)[0])
        # With 12 above it, the tail stops where interpolation reaches 2.0.
        p, v, beyond, n = benchlib.tail_percentile([1.0] * 50 + [2.0] * 12)
        self.assertEqual((p, beyond, n), (81, 12, 62))
        self.assertLess(v, 2.0)


class ErrorRateTest(unittest.TestCase):
    def test_rate(self):
        self.assertEqual(benchlib.error_rate(8, 0), 0.0)
        self.assertEqual(benchlib.error_rate(8, 2), 0.25)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            benchlib.error_rate(0, 0)
        with self.assertRaises(ValueError):
            benchlib.error_rate(3, 4)
        with self.assertRaises(ValueError):
            benchlib.error_rate(3, -1)

    def test_reference_check_adds_one_operation(self):
        attempted, failed = benchlib.merge_checks((10, 0), (1, 1))
        self.assertEqual((attempted, failed), (11, 1))
        self.assertAlmostEqual(benchlib.error_rate(attempted, failed), 1 / 11)

    def test_reference_mismatch_counts_as_failed(self):
        raw = {"seed": 1, "workload": "fig10_sharded", "digest": {"makespan": -1}}
        self.assertEqual(run.reference_check(raw), (1, 1))
        raw = {"seed": 987654321, "workload": "fig10_serial", "digest": {}}
        self.assertEqual(run.reference_check(raw), (0, 0))  # no reference recorded


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_covered_child_time(self):
        # parent [0, 100); children [10, 30) and [20, 50) overlap -> 40 covered.
        buf = [["p", 0, 100, -1, 7], ["a", 10, 30, 0, 7], ["b", 20, 50, 0, 7],
               ["c", 40, 45, 2, 7]]
        (times,) = benchlib.self_times([buf])
        self.assertEqual(times[0], ("p", 60, 7))
        self.assertEqual(times[1], ("a", 20, 7))
        self.assertEqual(times[2], ("b", 25, 7))  # its own child covers 5
        self.assertEqual(times[3], ("c", 5, 7))

    def test_union_clips(self):
        self.assertEqual(benchlib.union_length([(0, 10), (5, 20), (30, 40)]), 30)
        self.assertEqual(benchlib.union_length([(0, 10), (30, 40)], 5, 35), 10)

    def test_coverage_counts_top_level_per_thread(self):
        b1 = [["x", 0, 50, -1, 0], ["y", 10, 20, 0, 0]]
        b2 = [["x", 0, 100, -1, 1]]
        self.assertAlmostEqual(benchlib.coverage([b1, b2], (0, 100), 2), 0.75)


class NameTest(unittest.TestCase):
    def test_benchmark_json_names_follow_the_grammar(self):
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, benchlib.NAME_RE)

    def test_check_names_flags_every_kind_of_mismatch(self):
        declared = [{"name": "a_s", "unit": "s"}, {"name": "b", "unit": "count"}]
        good = {"a_s": {"value": 1.0, "unit": "s"}, "b": {"value": 2, "unit": "count"}}
        self.assertEqual(benchlib.check_names(good, declared), [])
        bad = {"a_s": {"value": 1.0, "unit": "ms"}, "c d": {"value": 1, "unit": "s"}}
        problems = " | ".join(benchlib.check_names(bad, declared))
        for needle in ("unit 'ms'", "bad metric name 'c d'", "not declared", "b is declared"):
            self.assertIn(needle, problems)

    def test_end_to_end_emits_exactly_the_declared_metrics(self):
        raw = {"unit_s": [1.0, 1.2, 0.9], "setup_s": [0.01, 0.02], "reqs_per_unit": 100.0,
               "cells_per_unit": 4.0, "cell_s": [0.2, 0.3, 0.25], "peak_rss_bytes": 2**21,
               "nodes": 1024}
        metrics = run.end_to_end(raw)
        self.assertEqual(benchlib.check_names(metrics, SPEC["end_to_end"]), [])
        self.assertEqual(metrics["reqs_per_s"]["value"], 100.0)
        self.assertEqual(metrics["peak_rss_mb"]["value"], 2.0)
        for m in metrics.values():
            self.assertGreater(m["value"], 0)

    def test_per_layer_emits_exactly_the_declared_metrics(self):
        cells = [{"fault": "none", "twin": "t"}, {"fault": "loss:0.05", "twin": "t"}]
        raw = {"unit_s": [2.0, 2.0], "untraced_unit_s": [1.6, 1.6], "layer_units_per_unit": 1,
               "layer": {"graph.edges": 10.0}, "cells": cells, "section_ns": [0, 100],
               "threads": 1}
        buffers = [[["sweep.cell", 0, 40, -1, 0], ["exp.run.arrow", 0, 30, 0, 0],
                    ["sweep.cell", 40, 100, -1, 1], ["exp.run.arrow", 40, 100, 2, 1]]]
        metrics = run.per_layer(raw, buffers, SPEC["per_layer"])
        self.assertEqual(benchlib.check_names(metrics, SPEC["per_layer"]), [])
        self.assertAlmostEqual(metrics["exp.fault_cost_ratio"]["value"], 2.0)
        self.assertAlmostEqual(metrics["exp.run_s.arrow"]["value"], 90e-9 / 2)
        self.assertAlmostEqual(metrics["trace.overhead_frac"]["value"], 0.25)
        self.assertAlmostEqual(metrics["trace.coverage_frac"]["value"], 1.0)
        self.assertEqual(metrics["graph.edges"]["value"], 10.0)


if __name__ == "__main__":
    unittest.main()
