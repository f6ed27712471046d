#include "core/exact.h"

#include <algorithm>

#include "core/attendance.h"

namespace ses::core {

namespace {

/// DFS state shared across the recursion.
struct SearchContext {
  explicit SearchContext(Schedule start)
      : instance(&start.instance()), model(start), best(std::move(start)) {}

  const SesInstance* instance;
  AttendanceModel model;
  const SolveContext* context = nullptr;
  size_t k = 0;
  uint64_t max_nodes = 0;
  uint64_t nodes = 0;
  bool budget_exhausted = false;
  /// Set when the SolveContext stopped the search early.
  util::Status termination;

  /// upper_bound[e] = max over t of the empty-schedule score of (e, t).
  std::vector<double> event_upper_bound;
  /// suffix_top[e][j]: sum of the j largest upper bounds among events
  /// >= e, one row per e with j up to min(k, |E| - e); read through
  /// SuffixBound().
  std::vector<std::vector<double>> suffix_top;

  /// The incumbent and the utility its search path added to the warm
  /// start; the warm start itself until a complete schedule is found.
  double best_utility = -1.0;
  Schedule best;
};

/// Sum of the \p need largest event upper bounds among events >= from.
double SuffixBound(const SearchContext& ctx, EventIndex from, size_t need) {
  if (need == 0) return 0.0;
  if (from >= ctx.suffix_top.size()) return 0.0;
  const auto& sums = ctx.suffix_top[from];
  if (sums.empty()) return 0.0;
  const size_t idx = std::min(need, sums.size() - 1);
  return sums[idx];
}

/// \p utility is the sum of the gains Apply returned along the path: the
/// utility the path's placements add to the warm start.
void Dfs(SearchContext& ctx, EventIndex next_event, size_t chosen,
         double utility) {
  if (ctx.budget_exhausted || !ctx.termination.ok()) return;
  if (++ctx.nodes > ctx.max_nodes) {
    ctx.budget_exhausted = true;
    return;
  }
  // Nodes are cheap relative to a clock read, so poll on a stride. The
  // first node (nodes == 1) polls too, making a ~0 deadline return
  // before any search work.
  if ((ctx.nodes & 255) == 1 &&
      ctx.context->CheckStop(&ctx.termination)) {
    return;
  }
  ctx.context->CountWork(1);

  if (chosen == ctx.k) {
    if (utility > ctx.best_utility) {
      ctx.best_utility = utility;
      ctx.best = ctx.model.schedule();
    }
    return;
  }

  const size_t remaining_needed = ctx.k - chosen;
  const uint32_t num_events = ctx.instance->num_events();
  // Not enough events left to reach k.
  if (next_event >= num_events ||
      num_events - next_event < remaining_needed) {
    return;
  }

  // Bound check.
  const double bound =
      utility + SuffixBound(ctx, next_event, remaining_needed);
  if (bound <= ctx.best_utility + 1e-12) return;

  // A committed (warm-start) event is neither moved nor dropped.
  if (ctx.model.schedule().IsAssigned(next_event)) {
    Dfs(ctx, next_event + 1, chosen, utility);
    return;
  }

  // Branch 1..|T|: place next_event at each feasible interval.
  for (IntervalIndex t = 0; t < ctx.instance->num_intervals(); ++t) {
    if (!ctx.model.CanAssign(next_event, t)) continue;
    const double gain = ctx.model.Apply(next_event, t);
    Dfs(ctx, next_event + 1, chosen + 1, utility + gain);
    ctx.model.Unapply(next_event);
    if (ctx.budget_exhausted || !ctx.termination.ok()) return;
  }

  // Branch 0: skip next_event entirely.
  Dfs(ctx, next_event + 1, chosen, utility);
}

}  // namespace

util::Result<SolveOutcome> ExactSolver::DoSolve(const SesInstance& instance,
                                                const SolverOptions& options,
                                                const SolveContext& context,
                                                Schedule start) {
  // The search places only the k - |warm start| assignments still open;
  // a run stopped before its first complete schedule returns the
  // committed part, like the constructive solvers.
  SearchContext ctx(std::move(start));
  ctx.context = &context;
  ctx.k = static_cast<size_t>(options.k) - options.warm_start.size();
  ctx.max_nodes = options.max_nodes;

  // Per-event optimistic scores on the empty schedule; they bound the
  // warm-started search too, because gains only shrink as an interval
  // fills (fact 2 in core/attendance.h). Committed events get bound 0:
  // they add no further gain. The probe alone is O(|E|·|T|) gain
  // evaluations, so it polls the context too — a ~0 deadline must return
  // before any of the precompute, not just before the first search node.
  // Its evaluations are the solve's only counted ones: the search's own
  // gains all run inside Apply, which does not count them.
  ctx.event_upper_bound.assign(instance.num_events(), 0.0);
  uint64_t probe_evaluations = 0;
  {
    AttendanceModel probe(instance);
    for (IntervalIndex t = 0; t < instance.num_intervals(); ++t) {
      if (context.CheckStop(&ctx.termination)) break;
      for (EventIndex e = 0; e < instance.num_events(); ++e) {
        ctx.event_upper_bound[e] =
            std::max(ctx.event_upper_bound[e], probe.MarginalGain(e, t));
      }
    }
    probe_evaluations = probe.gain_evaluations();
  }
  for (const Assignment& a : options.warm_start) {
    ctx.event_upper_bound[a.event] = 0.0;
  }

  // suffix_top[e][j] = sum of j largest upper bounds among events >= e.
  // O(|E|^2 log |E|) worst case — also interruptible.
  if (ctx.termination.ok()) {
    ctx.suffix_top.resize(instance.num_events() + 1);
    ctx.suffix_top[instance.num_events()] = {0.0};
    for (EventIndex e = instance.num_events(); e-- > 0;) {
      if (context.CheckStop(&ctx.termination)) break;
      std::vector<double> tail(ctx.event_upper_bound.begin() + e,
                               ctx.event_upper_bound.end());
      std::sort(tail.begin(), tail.end(), std::greater<double>());
      const size_t cap = std::min(tail.size(), ctx.k);
      std::vector<double> sums(cap + 1, 0.0);
      for (size_t j = 0; j < cap; ++j) sums[j + 1] = sums[j] + tail[j];
      ctx.suffix_top[e] = std::move(sums);
    }
  }

  if (ctx.termination.ok()) Dfs(ctx, 0, 0, 0.0);

  if (ctx.termination.ok()) {
    if (ctx.budget_exhausted) {
      return util::Status::ResourceExhausted(
          "exact solver exceeded its node budget; instance too large");
    }
    if (ctx.best_utility < 0.0) {
      // No feasible size-k schedule exists.
      return util::Status::Infeasible(
          "no feasible schedule with k assignments");
    }
  }
  // On early termination the incumbent (possibly empty) is the best
  // feasible schedule certified so far — return it rather than erroring.
  SolverStats stats;
  stats.nodes = ctx.nodes;
  stats.gain_evaluations = ctx.model.gain_evaluations() + probe_evaluations;
  return SolveOutcome{std::move(ctx.best), stats, std::move(ctx.termination)};
}

}  // namespace ses::core
