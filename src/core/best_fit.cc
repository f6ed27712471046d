#include "core/best_fit.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

#include "core/attendance.h"
#include "core/score_gen.h"

namespace ses::core {

util::Result<SolveOutcome> BestFitSolver::DoSolve(
    const SesInstance& instance, const SolverOptions& options,
    const SolveContext& context, Schedule start) {
  AttendanceModel model(std::move(start));
  SolverStats stats;

  // Pass 1: the generation stage shared with TOP and GRD fills
  // grid[t * |E| + e] with every unassigned pair's warm-start-only score,
  // bit-identical at any SolverOptions::threads value. Pass 2 rewrites
  // rows, so it takes the grid as its own.
  const size_t num_events = instance.num_events();
  const IntervalIndex num_intervals = instance.num_intervals();
  InitialScores initial = GetInitialScores(instance, options, context);
  std::vector<double> grid = initial.TakeGrid();
  util::Status termination = initial.generated.termination;

  // Optimistic per-event priority = best empty-schedule score (warm-started
  // events keep their untouched zero cells). Events visit in descending
  // priority; equal priorities (twin events) go in ascending event order.
  std::vector<double> priority(num_events, 0.0);
  for (IntervalIndex t = 0; t < num_intervals; ++t) {
    const double* row = grid.data() + static_cast<size_t>(t) * num_events;
    for (EventIndex e = 0; e < num_events; ++e) {
      priority[e] = std::max(priority[e], row[e]);
    }
  }
  std::vector<EventIndex> order(instance.num_events());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&priority](EventIndex a, EventIndex b) {
              if (priority[a] != priority[b]) return priority[a] > priority[b];
              return a < b;
            });

  // Pass 2: each event takes its currently-best feasible interval, read
  // from the grid. Invariant: when an event is visited, grid[t][e] equals
  // MarginalGain(e, t) under the current schedule for every feasible t.
  // Only the chosen interval's scores change on Apply, so that row is
  // rescored, for the window order[i+1, horizon) of events still to
  // visit. A pair infeasible at refresh time stays infeasible (the
  // schedule only grows) and is never read. The horizon covers the
  // first k - |warm start| events left to place, so while every visit
  // places, the window holds every event visited before k. The first
  // skip moves the horizon to the end: the rows placed so far are
  // rescored once for the events past it, and every later row for every
  // later event.
  // Skipped when pass 1 was cut short (priorities would be truncated).
  const size_t k = static_cast<size_t>(options.k);
  size_t horizon = 0;
  for (size_t filled = model.schedule().size();
       filled < k && horizon < order.size(); ++horizon) {
    if (!model.schedule().IsAssigned(order[horizon])) ++filled;
  }
  const std::span<const EventIndex> visits(order);
  auto row_of = [&grid, num_events](IntervalIndex t) {
    return std::span<double>(grid).subspan(static_cast<size_t>(t) * num_events,
                                           num_events);
  };
  std::vector<bool> placed_at(num_intervals, false);
  for (size_t i = 0; i < order.size(); ++i) {
    if (!termination.ok() || context.CheckStop(&termination)) break;
    context.CountWork(1);
    if (model.schedule().size() >= k) break;
    const EventIndex e = order[i];
    if (model.schedule().IsAssigned(e)) continue;  // warm-started
    double best_gain = -1.0;
    IntervalIndex best_interval = kInvalidIndex;
    for (IntervalIndex t = 0; t < num_intervals; ++t) {
      if (!model.CanAssign(e, t)) continue;
      const double gain = grid[static_cast<size_t>(t) * num_events + e];
      if (gain > best_gain) {
        best_gain = gain;
        best_interval = t;
      }
    }
    if (best_interval == kInvalidIndex) {  // nowhere to place it
      // Later visits may pass the horizon, and no window has covered the
      // cells past it in the rows placed so far.
      if (horizon < order.size()) {
        const auto past = visits.subspan(horizon);
        for (IntervalIndex t = 0; t < num_intervals; ++t) {
          if (!placed_at[t]) continue;
          stats.updates += model.RescoreRow(t, row_of(t), past);
        }
        horizon = order.size();
      }
      continue;
    }
    model.Apply(e, best_interval);  // leaves best_interval loaded
    placed_at[best_interval] = true;
    ++stats.pops;
    if (model.schedule().size() >= k) continue;  // no reader left

    stats.updates += model.RescoreRow(best_interval, row_of(best_interval),
                                      visits.subspan(i + 1, horizon - i - 1));
  }

  // Generation ran on its own engines; adding their count keeps the total
  // equal to one model scoring everything.
  stats.gain_evaluations =
      model.gain_evaluations() + initial.generated.gain_evaluations;
  return SolveOutcome{model.schedule(), stats, std::move(termination)};
}

}  // namespace ses::core
