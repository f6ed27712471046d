#!/usr/bin/env python3
"""Fixture suite for tools/run_benchmarks.py, registered with ctest.

Exercises the pure helpers — median aggregation over report trees,
canonical BENCH file writing, google-benchmark dump normalization, the
micro leaderboard and compare rendering — against synthetic reports in
temp directories. No build or benchmark binary is needed, so the suite
stays fast enough for tier-1.
"""

import importlib.util
import json
import os
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNNER = os.path.join(REPO_ROOT, "tools", "run_benchmarks.py")

_spec = importlib.util.spec_from_file_location("run_benchmarks", RUNNER)
rb = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(rb)


def make_report(completed=6, rps=40.0):
    """A nested report tree: a string, integer counts, floats, a list."""
    return {
        "scenario": "unit",
        "requests": {"completed": completed, "failed": 0},
        "lanes": [{"submitted": completed}, {"submitted": 0}],
        "timing": {"duration_seconds": 0.25, "throughput_rps": rps},
    }


class MedianTest(unittest.TestCase):
    def test_odd_and_even(self):
        self.assertEqual(rb.median([3, 1, 2]), 2)
        self.assertEqual(rb.median([4, 1, 2, 3]), 2.5)

    def test_single(self):
        self.assertEqual(rb.median([7.5]), 7.5)


class MedianTreeTest(unittest.TestCase):
    def test_numbers_take_elementwise_median(self):
        trees = [make_report(rps=30.0), make_report(rps=50.0),
                 make_report(rps=40.0)]
        merged = rb.median_tree(trees)
        self.assertEqual(merged["timing"]["throughput_rps"], 40.0)
        # Identical strings pass through untouched.
        self.assertEqual(merged["scenario"], "unit")

    def test_integer_fields_stay_integers(self):
        trees = [make_report(completed=5), make_report(completed=7),
                 make_report(completed=6)]
        merged = rb.median_tree(trees)
        self.assertEqual(merged["requests"]["completed"], 6)
        self.assertIsInstance(merged["requests"]["completed"], int)

    def test_schema_drift_raises(self):
        good = make_report()
        bad = make_report()
        del bad["timing"]
        with self.assertRaises(ValueError):
            rb.median_tree([good, bad])

    def test_string_disagreement_raises(self):
        a = make_report()
        b = make_report()
        b["scenario"] = "other"
        with self.assertRaises(ValueError):
            rb.median_tree([a, b])

    def test_empty_raises(self):
        with self.assertRaises(ValueError):
            rb.median_tree([])


class CanonicalFileTest(unittest.TestCase):
    def test_write_canonical_roundtrips_and_sorts_keys(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = rb.write_canonical(
                "unit", "S", [make_report(), make_report()], out_dir=tmp)
            self.assertEqual(os.path.basename(path), "BENCH_unit.json")
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            tree = json.loads(text)
            self.assertEqual(tree["scenario"], "unit")
            self.assertEqual(tree["size"], "S")
            self.assertEqual(tree["repeats"], 2)
            self.assertEqual(tree["report"]["requests"]["completed"], 6)
            # Canonical formatting: sorted keys, trailing newline.
            self.assertEqual(
                text, json.dumps(tree, indent=2, sort_keys=True) + "\n")


def make_micro_dump(gain_ns=120.0, fill_ns=90.0, items=3.0e10,
                    time_unit="ns"):
    """A minimal google-benchmark JSON dump with one aggregate entry."""
    return {
        "context": {"executable": "micro_attendance"},
        "benchmarks": [
            {"name": "BM_KernelLuceGain", "run_type": "iteration",
             "iterations": 1000, "real_time": gain_ns, "cpu_time": gain_ns,
             "time_unit": time_unit, "items_per_second": items},
            {"name": "BM_KernelFillSigmaHash", "run_type": "iteration",
             "iterations": 1000, "real_time": fill_ns, "cpu_time": fill_ns,
             "time_unit": time_unit},
            {"name": "BM_KernelLuceGain_mean", "run_type": "aggregate",
             "iterations": 3, "real_time": gain_ns, "cpu_time": gain_ns,
             "time_unit": time_unit},
        ],
    }


class MicroReportTest(unittest.TestCase):
    def test_normalizes_and_drops_aggregates(self):
        report = rb.micro_report(make_micro_dump())
        self.assertEqual(set(report["benchmarks"]),
                         {"BM_KernelLuceGain", "BM_KernelFillSigmaHash"})
        gain = report["benchmarks"]["BM_KernelLuceGain"]
        self.assertEqual(gain["real_time_ns"], 120.0)
        self.assertEqual(gain["items_per_second"], 3.0e10)
        # items_per_second is optional per benchmark.
        fill = report["benchmarks"]["BM_KernelFillSigmaHash"]
        self.assertIsNone(fill["items_per_second"])

    def test_time_unit_converted_to_ns(self):
        report = rb.micro_report(make_micro_dump(gain_ns=2.5,
                                                 time_unit="us"))
        gain = report["benchmarks"]["BM_KernelLuceGain"]
        self.assertEqual(gain["real_time_ns"], 2500.0)

    def test_empty_dump_raises(self):
        with self.assertRaises(ValueError):
            rb.micro_report({"benchmarks": []})

    def test_reports_fold_through_median_tree(self):
        reports = [rb.micro_report(make_micro_dump(gain_ns=ns))
                   for ns in (100.0, 140.0, 120.0)]
        merged = rb.median_tree(reports)
        self.assertEqual(
            merged["benchmarks"]["BM_KernelLuceGain"]["real_time_ns"],
            120.0)


class MicroLeaderboardAndCompareTest(unittest.TestCase):
    def canonical(self, gain_ns):
        return {"scenario": rb.MICRO_SCENARIO, "size": "micro",
                "repeats": 1,
                "report": rb.micro_report(make_micro_dump(gain_ns=gain_ns))}

    def test_leaderboard_lists_every_benchmark(self):
        board = rb.render_micro_leaderboard(self.canonical(120.0))
        self.assertIn("BM_KernelLuceGain", board)
        self.assertIn("BM_KernelFillSigmaHash", board)
        self.assertIn("120.0", board)

    def test_compare_rows_report_real_time_ratio(self):
        rows = {key: (o, n, ratio) for key, o, n, ratio
                in rb.micro_compare_rows(self.canonical(100.0),
                                         self.canonical(80.0))}
        o, n, ratio = rows["BM_KernelLuceGain ns"]
        self.assertEqual((o, n), (100.0, 80.0))
        self.assertAlmostEqual(ratio, -0.2)
        text = rb.render_compare(rb.MICRO_SCENARIO,
                                 rb.micro_compare_rows(self.canonical(100.0),
                                                       self.canonical(80.0)))
        self.assertIn("-20.0%", text)

    def test_zero_baseline_renders_na(self):
        rows = rb.micro_compare_rows(self.canonical(0.0),
                                     self.canonical(80.0))
        ratios = {key: ratio for key, _, _, ratio in rows}
        self.assertIsNone(ratios["BM_KernelLuceGain ns"])
        text = rb.render_compare(rb.MICRO_SCENARIO, rows)
        self.assertIn("(n/a)", text)

    def test_compare_skips_benchmarks_missing_on_one_side(self):
        old = self.canonical(100.0)
        del old["report"]["benchmarks"]["BM_KernelFillSigmaHash"]
        keys = {key for key, _, _, _
                in rb.micro_compare_rows(old, self.canonical(90.0))}
        self.assertEqual(keys, {"BM_KernelLuceGain ns"})


if __name__ == "__main__":
    unittest.main()
