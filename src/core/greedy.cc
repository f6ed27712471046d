#include "core/greedy.h"

#include <algorithm>

#include "core/attendance.h"
#include "core/objective.h"
#include "core/score_gen.h"
#include "util/timer.h"

namespace ses::core {

namespace {

/// One entry of the assignment list L.
struct ScoredAssignment {
  EventIndex event;
  IntervalIndex interval;
  double score;
};

}  // namespace

util::Result<SolverResult> GreedySolver::DoSolve(
    const SesInstance& instance, const SolverOptions& options,
    const SolveContext& context) {
  util::WallTimer timer;

  AttendanceModel model(instance);
  SES_RETURN_IF_ERROR(ApplyWarmStart(model, options.warm_start));
  SolverStats stats;

  // Algorithm 1, lines 2-4: generate all assignments with their scores.
  // The grid is bit-identical at every SolverOptions::threads value and L
  // is read from it in serial t-major order, so L is byte-identical
  // across thread counts (tests/core_parallel_solve_test.cc pins this).
  const size_t num_events = instance.num_events();
  const InitialScores initial = GetInitialScores(instance, options, context);
  const std::vector<double>& grid = initial.grid();
  util::Status termination = initial.generated.termination;
  std::vector<ScoredAssignment> list;
  if (termination.ok()) {
    list.reserve(grid.size());
    for (IntervalIndex t = 0; t < instance.num_intervals(); ++t) {
      for (EventIndex e = 0; e < num_events; ++e) {
        if (model.schedule().IsAssigned(e)) continue;  // warm-started
        list.push_back({e, t, grid[static_cast<size_t>(t) * num_events + e]});
      }
    }
  }

  const size_t k = static_cast<size_t>(options.k);
  // Algorithm 1, lines 5-13. Skipped entirely when generation was cut
  // short: selecting from a partial list would bias toward low intervals.
  while (termination.ok() && model.schedule().size() < k && !list.empty()) {
    if (context.CheckStop(&termination)) break;
    context.CountWork(1);
    // popTopAssgn: find and remove the largest-score assignment.
    size_t best = 0;
    for (size_t i = 1; i < list.size(); ++i) {
      if (list[i].score > list[best].score) best = i;
    }
    ++stats.pops;
    const ScoredAssignment top = list[best];
    list[best] = list.back();
    list.pop_back();

    if (!model.CanAssign(top.event, top.interval)) continue;
    model.Apply(top.event, top.interval);

    if (model.schedule().size() >= k) break;

    // Update pass: recompute scores of valid assignments referring to the
    // chosen interval; remove invalid assignments from L.
    size_t write = 0;
    for (size_t i = 0; i < list.size(); ++i) {
      ScoredAssignment a = list[i];
      if (!model.CanAssign(a.event, a.interval)) continue;  // drop
      if (a.interval == top.interval) {
        a.score = model.MarginalGain(a.event, a.interval);
        ++stats.updates;
      }
      list[write++] = a;
    }
    list.resize(write);
  }

  // Generation ran on its own engines; adding their count keeps the total
  // equal to one model scoring everything.
  stats.gain_evaluations =
      model.gain_evaluations() + initial.generated.gain_evaluations;

  SolverResult result;
  result.assignments = model.schedule().Assignments();
  result.utility = TotalUtility(instance, model.schedule());
  result.wall_seconds = timer.ElapsedSeconds();
  result.stats = stats;
  result.solver = std::string(name());
  result.termination = std::move(termination);
  return result;
}

}  // namespace ses::core
