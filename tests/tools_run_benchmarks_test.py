#!/usr/bin/env python3
"""Fixture suite for tools/run_benchmarks.py, registered with ctest.

Exercises the pure helpers — google-benchmark dump normalization, the
median and interquartile range, the A/B row with its wins and verdict,
and the two tables — against synthetic dumps and rounds. No build or
benchmark binary is needed, so the suite stays fast enough for tier-1.
"""

import importlib.util
import os
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNNER = os.path.join(REPO_ROOT, "tools", "run_benchmarks.py")

_spec = importlib.util.spec_from_file_location("run_benchmarks", RUNNER)
rb = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(rb)

# Ten REF rounds: median 104.5, quartiles 101.75 and 107.25, IQR 5.5.
REF = [100.0 + i for i in range(10)]


def make_micro_dump(gain_ns=120.0, fill_ns=90.0, time_unit="ns"):
    """A minimal google-benchmark JSON dump with one aggregate entry."""
    return {
        "context": {"executable": "micro_attendance"},
        "benchmarks": [
            {"name": "BM_KernelLuceGain", "run_type": "iteration",
             "iterations": 1000, "real_time": gain_ns, "cpu_time": gain_ns,
             "time_unit": time_unit, "items_per_second": 3.0e10},
            {"name": "BM_KernelFillSigmaHash", "run_type": "iteration",
             "iterations": 1000, "real_time": fill_ns, "cpu_time": fill_ns,
             "time_unit": time_unit},
            {"name": "BM_KernelLuceGain_mean", "run_type": "aggregate",
             "iterations": 3, "real_time": gain_ns, "cpu_time": gain_ns,
             "time_unit": time_unit},
        ],
    }


class RealTimesTest(unittest.TestCase):
    def test_drops_aggregates(self):
        self.assertEqual(rb.real_times_ns(make_micro_dump()),
                         {"BM_KernelLuceGain": 120.0,
                          "BM_KernelFillSigmaHash": 90.0})

    def test_time_unit_converted_to_ns(self):
        times = rb.real_times_ns(make_micro_dump(gain_ns=2.5, time_unit="us"))
        self.assertEqual(times["BM_KernelLuceGain"], 2500.0)

    def test_empty_dump_raises(self):
        with self.assertRaises(ValueError):
            rb.real_times_ns({"benchmarks": []})


class SpreadTest(unittest.TestCase):
    def test_odd_and_even_medians(self):
        self.assertEqual(rb.spread([3, 1, 2])[0], 2)
        self.assertEqual(rb.spread([4, 1, 2, 3])[0], 2.5)

    def test_iqr_is_distance_between_quartiles(self):
        self.assertEqual(rb.spread(REF), (104.5, 5.5))

    def test_single_value_has_no_iqr(self):
        self.assertEqual(rb.spread([7.5]), (7.5, None))


class AbRowTest(unittest.TestCase):
    def wins_and_verdict(self, ref, tree):
        _, _, _, wins, verdict = rb.ab_row(ref, tree)
        return wins, verdict

    def test_nine_of_ten_wins_beyond_iqr_reads_faster(self):
        tree = [t - 10 for t in REF]
        tree[0] = REF[0] + 1
        self.assertEqual(self.wins_and_verdict(REF, tree), (9, "faster"))

    def test_nine_of_ten_losses_beyond_iqr_reads_slower(self):
        tree = [t + 10 for t in REF]
        tree[0] = REF[0] - 1
        self.assertEqual(self.wins_and_verdict(REF, tree), (1, "slower"))

    def test_eight_of_ten_wins_is_unresolved(self):
        tree = [t - 10 for t in REF]
        tree[0], tree[1] = REF[0] + 1, REF[1] + 1
        self.assertEqual(self.wins_and_verdict(REF, tree), (8, "unresolved"))

    def test_medians_must_differ_by_more_than_iqr(self):
        # 10/10 wins each time; the medians differ by 5.5, then by 6.
        at_iqr = [t - 5.5 for t in REF]
        beyond_iqr = [t - 6 for t in REF]
        self.assertEqual(self.wins_and_verdict(REF, at_iqr),
                         (10, "unresolved"))
        self.assertEqual(self.wins_and_verdict(REF, beyond_iqr),
                         (10, "faster"))

    def test_nine_rounds_are_too_few(self):
        tree = [t - 10 for t in REF[:9]]
        self.assertEqual(self.wins_and_verdict(REF[:9], tree),
                         (9, "unresolved"))

    def test_tie_counts_for_neither_side(self):
        ref = [100.0] * 10
        self.assertEqual(self.wins_and_verdict(ref, [80.0] * 9 + [100.0]),
                         (9, "faster"))
        self.assertEqual(self.wins_and_verdict(ref, [80.0] * 8 + [100.0] * 2),
                         (8, "unresolved"))
        self.assertEqual(
            self.wins_and_verdict(ref, [120.0] * 8 + [100.0] * 2),
            (0, "unresolved"))


class RenderTest(unittest.TestCase):
    def test_timings_list_median_and_iqr_of_every_benchmark(self):
        runs = [rb.real_times_ns(make_micro_dump(gain_ns=ns))
                for ns in (100.0, 140.0, 120.0)]
        board = rb.render_timings(runs)
        self.assertIn("BM_KernelFillSigmaHash", board)
        self.assertRegex(board, r"BM_KernelLuceGain +120\.0 +40\.0")
        single = rb.render_timings(runs[:1])
        self.assertRegex(single, r"BM_KernelLuceGain +100\.0 +n/a")

    def test_ab_row_shows_medians_delta_iqr_and_wins(self):
        ref = [{"BM_A": t} for t in REF]
        tree = [{"BM_A": t - 10} for t in REF]
        text = rb.render_ab("HEAD~1", ref, tree)
        self.assertRegex(
            text, r"BM_A +104\.5 +94\.5 +-9\.6% +5\.5 +10/10  faster")

    def test_zero_ref_median_renders_na(self):
        ref = [{"BM_A": 0.0}, {"BM_A": 0.0}]
        tree = [{"BM_A": 5.0}, {"BM_A": 5.0}]
        self.assertRegex(rb.render_ab("HEAD", ref, tree),
                         r"BM_A +0\.0 +5\.0 +n/a +0\.0 +0/2  unresolved")

    def test_one_sided_benchmarks_are_named(self):
        ref = [{"BM_A": 1.0, "BM_Old": 2.0}]
        tree = [{"BM_A": 1.0, "BM_New": 3.0, "BM_Newer": 4.0}]
        text = rb.render_ab("HEAD~1", ref, tree)
        self.assertIn("only at HEAD~1: BM_Old", text)
        self.assertIn("only in the working tree: BM_New, BM_Newer", text)
        self.assertEqual(text.count("BM_A "), 1)


if __name__ == "__main__":
    unittest.main()
