#include "core/greedy.h"

#include <algorithm>
#include <span>
#include <vector>

#include "core/attendance.h"
#include "core/score_gen.h"

namespace ses::core {

util::Result<SolveOutcome> GreedySolver::DoSolve(
    const SesInstance& instance, const SolverOptions& options,
    const SolveContext& context, Schedule start) {
  AttendanceModel model(std::move(start));
  SolverStats stats;

  // Algorithm 1, lines 2-4. The grid is bit-identical at every
  // SolverOptions::threads value and the scan below reads it in one
  // fixed order, so the schedule is byte-identical across thread counts
  // (tests/core_parallel_solve_test.cc pins this).
  const size_t num_events = instance.num_events();
  const IntervalIndex num_intervals = instance.num_intervals();
  InitialScores initial = GetInitialScores(instance, options, context);
  util::Status termination = initial.generated.termination;
  std::vector<double> grid;
  // Skipped when generation was cut short: selecting from a partial grid
  // would bias toward low intervals.
  if (termination.ok()) {
    grid = initial.TakeGrid();
    // Warm-started events and pairs infeasible from the start.
    for (IntervalIndex t = 0; t < num_intervals; ++t) {
      for (EventIndex e = 0; e < num_events; ++e) {
        if (!model.CanAssign(e, t)) {
          grid[static_cast<size_t>(t) * num_events + e] = kNoScore;
        }
      }
    }
  }

  const size_t k = static_cast<size_t>(options.k);
  // Algorithm 1, lines 5-13.
  while (termination.ok() && model.schedule().size() < k) {
    if (context.CheckStop(&termination)) break;
    context.CountWork(1);
    // popTopAssgn: the first strict maximum in (interval, event) order.
    const auto top = std::max_element(grid.begin(), grid.end());
    if (top == grid.end() || *top == kNoScore) break;  // nothing valid left
    const auto cell = static_cast<size_t>(top - grid.begin());
    const auto t = static_cast<IntervalIndex>(cell / num_events);
    const auto e = static_cast<EventIndex>(cell % num_events);
    model.Apply(e, t);
    ++stats.pops;
    for (IntervalIndex u = 0; u < num_intervals; ++u) {
      grid[static_cast<size_t>(u) * num_events + e] = kNoScore;
    }
    if (model.schedule().size() >= k) break;
    // Update pass: only the chosen interval's scores changed.
    stats.updates += model.RescoreRow(
        t, std::span<double>(grid).subspan(cell - e, num_events));
  }

  // Generation ran on its own engines; adding their count keeps the total
  // equal to one model scoring everything.
  stats.gain_evaluations =
      model.gain_evaluations() + initial.generated.gain_evaluations;
  return SolveOutcome{model.schedule(), stats, std::move(termination)};
}

}  // namespace ses::core
