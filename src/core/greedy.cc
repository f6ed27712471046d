#include "core/greedy.h"

#include <algorithm>
#include <numeric>
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
  // best[t]: the event of row t's first maximum.
  std::vector<EventIndex> best;
  auto row_of = [&grid, num_events](IntervalIndex t) {
    return std::span<double>(grid).subspan(static_cast<size_t>(t) * num_events,
                                           num_events);
  };
  auto rescan = [&row_of, &best](IntervalIndex t) {
    const std::span<double> row = row_of(t);
    best[t] = static_cast<EventIndex>(
        std::max_element(row.begin(), row.end()) - row.begin());
  };
  // Skipped when generation was cut short, since selecting from a
  // partial grid would bias toward low intervals, and when no event
  // exists. Without row maxima nothing is selected.
  if (termination.ok() && num_events > 0) {
    grid = initial.TakeGrid();
    // Warm-started events and pairs infeasible from the start.
    for (IntervalIndex t = 0; t < num_intervals; ++t) {
      for (EventIndex e = 0; e < num_events; ++e) {
        if (!model.CanAssign(e, t)) row_of(t)[e] = kNoScore;
      }
    }
    best.resize(num_intervals);
    for (IntervalIndex t = 0; t < num_intervals; ++t) rescan(t);
  }
  // The update pass rescores every event's cell.
  std::vector<EventIndex> every_event(num_events);
  std::iota(every_event.begin(), every_event.end(), 0u);

  const size_t k = static_cast<size_t>(options.k);
  // Algorithm 1, lines 5-13.
  while (termination.ok() && model.schedule().size() < k) {
    if (context.CheckStop(&termination)) break;
    context.CountWork(1);
    // popTopAssgn: the first strict maximum in (interval, event) order,
    // which is the first of the row maxima that is largest.
    IntervalIndex t = kInvalidIndex;
    double top = kNoScore;
    for (IntervalIndex u = 0; u < best.size(); ++u) {
      if (row_of(u)[best[u]] > top) {
        top = row_of(u)[best[u]];
        t = u;
      }
    }
    if (t == kInvalidIndex) break;  // nothing valid left
    const EventIndex e = best[t];
    model.Apply(e, t);
    ++stats.pops;
    // Masking e's column lowers only the rows whose maximum was e. The
    // cells before e there are below its old value and the later ones
    // not above it, so the first later cell equal to it (often a twin)
    // is the new maximum; a row without one is rescanned.
    for (IntervalIndex u = 0; u < num_intervals; ++u) {
      const std::span<double> row = row_of(u);
      const double old = row[e];
      row[e] = kNoScore;
      if (u == t || best[u] != e) continue;
      const auto next = std::find(row.begin() + e + 1, row.end(), old);
      if (next == row.end()) {
        rescan(u);
      } else {
        best[u] = static_cast<EventIndex>(next - row.begin());
      }
    }
    if (model.schedule().size() >= k) break;
    // Update pass: only the chosen interval's scores changed.
    stats.updates += model.RescoreRow(t, row_of(t), every_event);
    rescan(t);
  }

  // Generation ran on its own engines; adding their count keeps the total
  // equal to one model scoring everything.
  stats.gain_evaluations =
      model.gain_evaluations() + initial.generated.gain_evaluations;
  return SolveOutcome{model.schedule(), stats, std::move(termination)};
}

}  // namespace ses::core
