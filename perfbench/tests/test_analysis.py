"""Tests of the benchmark's own helpers in perfbench/analysis.py.

    python3 -m unittest discover -s perfbench/tests
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import analysis  # noqa: E402

MS = 1_000_000  # ns


def span(id_, parent, name, start_ms, end_ms, request=-1, **attrs):
    return {"id": id_, "parent": parent, "request": request, "name": name,
            "start_ns": int(start_ms * MS), "end_ns": int(end_ms * MS), "attrs": attrs}


def raw_run(workload="serve_open", trace=0, requests=None, spans=None):
    return {"workload": workload, "seed": 1, "trace": trace, "setup_s": [0.3, 0.1, 0.2],
            "requests": requests or [], "peak_rss_mb": 50.0, "span_cost_ns": 100.0,
            "spans": spans or []}


class PercentileRuleTest(unittest.TestCase):
    def test_nearest_rank_is_a_sample(self):
        values = [5, 1, 4, 2, 3]
        self.assertEqual(analysis.percentile(values, 50), (3, 2))
        self.assertEqual(analysis.percentile(values, 90), (5, 0))
        self.assertEqual(analysis.percentile(values, 100), (5, 0))
        self.assertEqual(analysis.percentile(values, 0), (1, 4))

    def test_no_samples(self):
        self.assertEqual(analysis.percentile([], 50), (None, 0))
        self.assertIsNone(analysis.reportable_percentile([], 50))

    def test_needs_ten_samples_beyond(self):
        hundred = list(range(1, 101))
        self.assertEqual(analysis.percentile(hundred, 90), (90, 10))
        self.assertEqual(analysis.reportable_percentile(hundred, 90), 90)
        ninety_nine = list(range(1, 100))
        self.assertEqual(analysis.percentile(ninety_nine, 90), (90, 9))
        self.assertIsNone(analysis.reportable_percentile(ninety_nine, 90))
        # The median of 19 samples has only 9 beyond it.
        self.assertIsNone(analysis.reportable_percentile(list(range(19)), 50))
        self.assertEqual(analysis.reportable_percentile(list(range(21)), 50), 10)


class DueTimeTest(unittest.TestCase):
    def test_latency_counts_from_due_time(self):
        # Due at 100 ms, submitted 30 ms late by a stalled generator, back at
        # 250 ms: the stall counts against latency and shows as lag.
        latency, lag = analysis.request_times(
            {"due_ns": 100 * MS, "submit_ns": 130 * MS, "done_ns": 250 * MS})
        self.assertAlmostEqual(latency, 0.150)
        self.assertAlmostEqual(lag, 0.030)

    def test_closed_loop_has_no_lag(self):
        latency, lag = analysis.request_times(
            {"due_ns": 5 * MS, "submit_ns": 5 * MS, "done_ns": 9 * MS})
        self.assertAlmostEqual(latency, 0.004)
        self.assertEqual(lag, 0.0)

    def test_open_loop_layer_metrics(self):
        spans = []
        for i in range(100):
            base = 1000 * i
            root = 3 * i + 1
            spans += [
                span(root, 0, "serve_open.request", base, base + 100 + i, request=i),
                span(root + 1, root, "api.Scheduler.Submit", base + i * 0.01, base + 1, request=i),
                span(root + 2, root, "api.PendingSolve.Get:grd", base + 99 + i, base + 100 + i,
                     request=i, queue_s=0.010, solver_s=0.080, pops=60, updates=5, gain_evaluations=7),
            ]
        m = analysis.layer_metrics(raw_run(trace=1, spans=spans))
        self.assertAlmostEqual(m["loadgen.lag_p90_s"], 89 * 0.01 / 1000)
        self.assertAlmostEqual(m["loadgen.latency_p90_s"], 0.189)
        self.assertAlmostEqual(m["scheduler.queue_wait_p90_s"], 0.010)
        self.assertAlmostEqual(m["scheduler.solver_p50_s"], 0.080)
        # latency - queue - solver, at the 90th percentile of 100 requests.
        self.assertAlmostEqual(m["scheduler.handoff_p90_s"], 0.189 - 0.090)
        self.assertAlmostEqual(m["greedy.solve_s"], 0.080)
        self.assertEqual(m["greedy.pops"], 60)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [
            span(1, 0, "request", 0, 100),
            span(2, 1, "a", 10, 40),
            span(3, 1, "b", 30, 50),   # overlaps a by 10 ms
            span(4, 1, "c", 90, 120),  # runs past the parent's end
            span(5, 2, "a.inner", 15, 20),
        ]
        selfs = analysis.self_times(spans)
        self.assertAlmostEqual(selfs[1], 0.100 - 0.040 - 0.010)
        self.assertAlmostEqual(selfs[2], 0.030 - 0.005)
        self.assertAlmostEqual(selfs[5], 0.005)

    def test_driver_self_time_of_closed_loop_requests(self):
        spans = [
            span(1, 0, "cold_solve.request", 0, 1000, request=0),
            span(2, 1, "instance_io.LoadInstance", 0, 600, request=0, bytes=6e8, rss_delta_mb=900.0),
            span(3, 1, "api.Scheduler.Solve:grd", 600, 990, request=0, solver_s=0.38,
                 pops=200, updates=1, gain_evaluations=2),
            span(4, 0, "setup", 0, 10),
            span(5, 4, "instance_io.LoadInstance", 1, 9),
            span(6, 0, "core.GenerateAssignmentScores", 2000, 2200, pairs=1000.0),
            span(7, 1, "core.TotalUtility", 990, 1000, request=0),
        ]
        m = analysis.layer_metrics(raw_run("cold_solve", trace=1, spans=spans))
        self.assertAlmostEqual(m["driver.self_s"], 0.0)
        # The set-up load counts as set-up, not as the measured layer.
        self.assertAlmostEqual(m["instance_io.load_s"], 0.6)
        self.assertAlmostEqual(m["instance_io.load_mb_per_s"], 1000.0)
        self.assertAlmostEqual(m["setup.load_s"], 0.008)
        self.assertAlmostEqual(m["score_gen.ns_per_pair"], 200_000.0)
        self.assertAlmostEqual(m["greedy.select_s"], 0.38 - 0.2 - 0.01)


class SummaryTest(unittest.TestCase):
    def requests(self, errors=()):
        return [{"id": i, "due_ns": 0, "submit_ns": 0, "done_ns": (i + 1) * MS,
                 "error": "bad" if i in errors else ""} for i in range(3)]

    def test_untraced_run_prints_end_to_end_metrics(self):
        lines, result = analysis.summarize(raw_run("cold_solve", requests=self.requests()))
        self.assertTrue(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (3, 0))
        self.assertEqual(list(result["metrics"]), [n for n, _ in analysis.END_TO_END])
        self.assertAlmostEqual(result["metrics"]["latency_s"]["value"], 0.002)
        self.assertAlmostEqual(result["metrics"]["setup_s"]["value"], 0.2)
        self.assertTrue(any("cold_solve_s" in line for line in lines))

    def test_traced_run_prints_every_layer_metric(self):
        _, result = analysis.summarize(raw_run(trace=1, requests=self.requests()))
        self.assertEqual(list(result["metrics"]), [n for n, _ in analysis.PER_LAYER])

    def test_a_failed_check_makes_the_run_incorrect(self):
        lines, result = analysis.summarize(raw_run(requests=self.requests(errors=(1,))))
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertTrue(any("FAILED request 1" in line for line in lines))


if __name__ == "__main__":
    unittest.main()
