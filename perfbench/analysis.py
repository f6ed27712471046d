"""Turns the driver's raw results into the benchmark's metrics.

The driver (perfbench/driver/driver.cc) writes one JSON file per run:
set-up times, one record per request (due, issue and completion times on
the driver's clock, plus the error of any failed check), the peak RSS of
the timed phase and, in a traced run, every span. This module computes
the end-to-end metrics from the request records and the per-layer
metrics from the spans alone. The metric names and what each should move
are listed in perfbench/README.md.
"""

import math
import statistics

# (name, unit) of every end-to-end metric, printed with --trace 0.
END_TO_END = [
    ("setup_s", "s"),
    ("latency_s", "s"),
    ("peak_rss_mb", "MB"),
]

# (name, unit) of every per-layer metric, printed with --trace 1. A layer
# a workload does not exercise reads 0.
PER_LAYER = [
    ("instance_io.load_s", "s"),
    ("instance_io.load_mb_per_s", "MB/s"),
    ("instance_io.rss_delta_mb", "MB"),
    ("validate.request_s", "s"),
    ("validate.assignments_s", "s"),
    ("score_gen.s", "s"),
    ("score_gen.pairs", "count"),
    ("score_gen.ns_per_pair", "ns"),
    ("greedy.solve_s", "s"),
    ("greedy.select_s", "s"),
    ("greedy.pops", "count"),
    ("greedy.updates", "count"),
    ("greedy.gain_evaluations", "count"),
    ("lazy.solve_s", "s"),
    ("lazy.pops", "count"),
    ("top.solve_s", "s"),
    ("bestfit.solve_s", "s"),
    ("bestfit.updates", "count"),
    ("attendance.gain_sweep_ns", "ns"),
    ("attendance.gain_hop_ns", "ns"),
    ("attendance.apply_unapply_ns", "ns"),
    ("objective.total_utility_s", "s"),
    ("scheduler.queue_wait_p50_s", "s"),
    ("scheduler.queue_wait_p90_s", "s"),
    ("scheduler.solver_p50_s", "s"),
    ("scheduler.handoff_p90_s", "s"),
    ("scheduler.submit_us", "us"),
    ("loadgen.lag_p90_s", "s"),
    ("loadgen.latency_p90_s", "s"),
    ("driver.self_s", "s"),
    ("setup.generate_s", "s"),
    ("setup.build_s", "s"),
    ("setup.save_s", "s"),
    ("setup.load_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
]

# Metrics derived from other metrics rather than measured by one span.
DERIVED = {"greedy.select_s": "greedy.solve_s - score_gen.s - objective.total_utility_s"}

# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10

NS = 1e-9


def percentile(values, q):
    """Nearest-rank q-th percentile of the samples themselves.

    Returns (value, beyond): the smallest sample with at least q% of the
    samples at or below it, and the number of samples ranked after it.
    (None, 0) for no samples.
    """
    if not values:
        return None, 0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def reportable_percentile(values, q):
    """The q-th percentile, or None when fewer than MIN_BEYOND samples lie
    beyond it (the percentile would rest on too few samples)."""
    value, beyond = percentile(values, q)
    return value if beyond >= MIN_BEYOND else None


def request_times(request):
    """(latency_s, lag_s) of one request record: latency from the time the
    request was due to its checked response, lag from due to issue."""
    latency = (request["done_ns"] - request["due_ns"]) * NS
    lag = (request["submit_ns"] - request["due_ns"]) * NS
    return latency, lag


def self_times(spans):
    """Self time of every span, by id: its duration minus the part of its
    interval that its children cover (overlapping children count once)."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        start, end = span["start_ns"], span["end_ns"]
        covered = 0
        cursor = start
        for child in sorted(children.get(span["id"], []), key=lambda c: c["start_ns"]):
            lo = max(child["start_ns"], cursor)
            hi = min(child["end_ns"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span["id"]] = (end - start - covered) * NS
    return result


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(raw):
    """The end-to-end metrics of a run, and the request latencies behind
    them (the report prints their count and tail)."""
    latencies = [request_times(r)[0] for r in raw["requests"]]
    metrics = {
        "setup_s": _median(raw["setup_s"]),
        "latency_s": _median(latencies),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    return metrics, latencies


class _Spans:
    """Index over a run's spans: which phase each belongs to, and lookups
    by name within the measured requests, probes and verification."""

    def __init__(self, spans):
        self.spans = spans
        by_id = {s["id"]: s for s in spans}

        def root(span):
            while span["parent"] in by_id:
                span = by_id[span["parent"]]
            return span

        self.in_setup = {s["id"]: root(s)["name"] == "setup" for s in spans}

    def named(self, name, setup=False):
        return [s for s in self.spans
                if s["name"] == name and self.in_setup[s["id"]] == setup]

    def solver_spans(self, solver):
        """Spans that carry a solver's own result (solver_s attribute)."""
        return [s for s in self.spans
                if s["name"].endswith(":" + solver) and "solver_s" in s["attrs"]]


def _duration(span):
    return (span["end_ns"] - span["start_ns"]) * NS


def _attr_median(spans, key):
    return _median([s["attrs"][key] for s in spans if key in s["attrs"]])


def _per_call_ns(spans, count_key):
    rates = [_duration(s) / NS / s["attrs"][count_key]
             for s in spans if s["attrs"].get(count_key)]
    return _median(rates)


def _or_zero(value):
    return 0.0 if value is None else value


def layer_metrics(raw):
    """Every per-layer metric of a traced run, from its spans."""
    index = _Spans(raw["spans"])
    m = {}

    loads = index.named("instance_io.LoadInstance")
    m["instance_io.load_s"] = _median([_duration(s) for s in loads])
    m["instance_io.load_mb_per_s"] = _median(
        [s["attrs"]["bytes"] / 1e6 / _duration(s) for s in loads if _duration(s) > 0])
    m["instance_io.rss_delta_mb"] = _attr_median(loads, "rss_delta_mb")

    m["validate.request_s"] = _median(
        [_duration(s) for s in index.named("api.Scheduler.Validate")])
    m["validate.assignments_s"] = _median(
        [_duration(s) for s in index.named("core.ValidateAssignments")])

    gen = index.named("core.GenerateAssignmentScores")
    m["score_gen.s"] = _median([_duration(s) for s in gen])
    m["score_gen.pairs"] = _attr_median(gen, "pairs")
    m["score_gen.ns_per_pair"] = _per_call_ns(gen, "pairs")

    m["objective.total_utility_s"] = _median(
        [_duration(s) for s in index.named("core.TotalUtility")])

    grd = index.solver_spans("grd")
    m["greedy.solve_s"] = _attr_median(grd, "solver_s")
    m["greedy.select_s"] = 0.0
    if m["greedy.solve_s"] > 0 and m["score_gen.s"] > 0:
        m["greedy.select_s"] = (m["greedy.solve_s"] - m["score_gen.s"]
                                - m["objective.total_utility_s"])
    for key in ("pops", "updates", "gain_evaluations"):
        m["greedy." + key] = _attr_median(grd, key)
    lazy = index.solver_spans("lazy")
    m["lazy.solve_s"] = _attr_median(lazy, "solver_s")
    m["lazy.pops"] = _attr_median(lazy, "pops")
    m["top.solve_s"] = _attr_median(index.solver_spans("top"), "solver_s")
    bestfit = index.solver_spans("bestfit")
    m["bestfit.solve_s"] = _attr_median(bestfit, "solver_s")
    m["bestfit.updates"] = _attr_median(bestfit, "updates")

    m["attendance.gain_sweep_ns"] = _per_call_ns(
        index.named("core.AttendanceModel.MarginalGain:sweep"), "calls")
    m["attendance.gain_hop_ns"] = _per_call_ns(
        index.named("core.AttendanceModel.MarginalGain:hop"), "calls")
    m["attendance.apply_unapply_ns"] = _per_call_ns(
        index.named("core.AttendanceModel.ApplyUnapply"), "pairs")

    # Open loop: each request root spans [due, response back]; its
    # children are the Submit and Get calls.
    queue, solver, handoff, lag, latency = [], [], [], [], []
    for root in index.named("serve_open.request"):
        kids = [s for s in raw["spans"] if s["parent"] == root["id"]]
        submit = [s for s in kids if s["name"] == "api.Scheduler.Submit"]
        get = [s for s in kids if s["name"].startswith("api.PendingSolve.Get")]
        total = _duration(root)
        latency.append(total)
        if submit:
            lag.append((submit[0]["start_ns"] - root["start_ns"]) * NS)
        if get:
            q, w = get[0]["attrs"]["queue_s"], get[0]["attrs"]["solver_s"]
            queue.append(q)
            solver.append(w)
            handoff.append(total - q - w)
    m["scheduler.queue_wait_p50_s"] = _or_zero(reportable_percentile(queue, 50))
    m["scheduler.queue_wait_p90_s"] = _or_zero(reportable_percentile(queue, 90))
    m["scheduler.solver_p50_s"] = _or_zero(reportable_percentile(solver, 50))
    m["scheduler.handoff_p90_s"] = _or_zero(reportable_percentile(handoff, 90))
    m["scheduler.submit_us"] = _median(
        [_duration(s) * 1e6 for s in index.named("api.Scheduler.Submit")])
    m["loadgen.lag_p90_s"] = _or_zero(reportable_percentile(lag, 90))
    m["loadgen.latency_p90_s"] = _or_zero(reportable_percentile(latency, 90))

    selfs = self_times(raw["spans"])
    m["driver.self_s"] = _median(
        [selfs[s["id"]] for s in raw["spans"]
         if s["parent"] == 0 and s["name"] in ("cold_solve.request", "hop_bestfit.request")])

    setups = index.named("setup", setup=True)
    for metric, call in (("setup.generate_s", "ebsn.GenerateSyntheticMeetup"),
                         ("setup.build_s", "exp.WorkloadFactory.Build"),
                         ("setup.save_s", "core.SaveInstance"),
                         ("setup.load_s", "instance_io.LoadInstance")):
        per_setup = [sum(_duration(s) for s in raw["spans"]
                         if s["parent"] == root["id"] and s["name"] == call)
                     for root in setups]
        m[metric] = _median(per_setup)

    m["trace.spans"] = len(raw["spans"])
    m["trace.overhead_s"] = raw["span_cost_ns"] * len(raw["spans"]) * NS
    return m


def _fmt(value):
    return "%.6g" % value


def summarize(raw):
    """Returns (report lines, result object) for one run. The result holds
    the end-to-end metrics of an untraced run or the per-layer metrics of
    a traced one, with the request counts and the correctness verdict."""
    workload = raw["workload"]
    attempted = len(raw["requests"])
    errors = [r for r in raw["requests"] if r["error"]]
    lines = ["workload %s  seed %d  trace %d" % (workload, raw["seed"], raw["trace"])]
    for r in errors[:5]:
        lines.append("FAILED request %d: %s" % (r["id"], r["error"]))

    e2e, latencies = end_to_end_metrics(raw)
    lines.append("  %-28s %s s  (median of %d set-ups)"
                 % ("setup_s", _fmt(e2e["setup_s"]), len(raw["setup_s"])))
    alias = {"cold_solve": "cold_solve_s", "hop_bestfit": "solve_s",
             "serve_open": "latency_p50_s"}.get(workload, "latency_s")
    lines.append("  %-28s %s s  (%s: median of %d requests)"
                 % ("latency_s", _fmt(e2e["latency_s"]), alias, len(latencies)))
    if workload == "serve_open":
        p90 = reportable_percentile(latencies, 90)
        lines.append("  %-28s %s  (%d samples)" % (
            "latency_p90_s", _fmt(p90) + " s" if p90 is not None
            else "n/a: fewer than %d samples beyond it" % MIN_BEYOND, len(latencies)))
        lags = [request_times(r)[1] for r in raw["requests"]]
        lag90 = reportable_percentile(lags, 90)
        if lag90 is not None and not raw["trace"]:
            lines.append("  %-28s %s s" % ("loadgen.lag_p90_s", _fmt(lag90)))
    lines.append("  %-28s %s MB  (timed phase)" % ("peak_rss_mb", _fmt(e2e["peak_rss_mb"])))
    lines.append("  %-28s %s  (%d of %d requests)"
                 % ("failed_frac", _fmt(len(errors) / attempted if attempted else 1.0),
                    len(errors), attempted))

    if raw["trace"]:
        metrics = layer_metrics(raw)
        table = PER_LAYER
        for name, unit in PER_LAYER:
            note = "  (derived: %s)" % DERIVED[name] if name in DERIVED else ""
            lines.append("  %-28s %s %s%s" % (name, _fmt(metrics[name]), unit, note))
        lines.append("  tracing overhead %s s over %d spans (%.1f ns per span, "
                     "traced minus untraced)" % (_fmt(metrics["trace.overhead_s"]),
                                                 metrics["trace.spans"],
                                                 raw["span_cost_ns"]))
    else:
        metrics, table = e2e, END_TO_END

    result = {
        "correct": attempted > 0 and not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in table},
    }
    return lines, result
