#include "core/top_k.h"

#include <algorithm>

#include "core/schedule.h"
#include "core/score_gen.h"

namespace ses::core {

util::Result<SolveOutcome> TopKSolver::DoSolve(const SesInstance& instance,
                                               const SolverOptions& options,
                                               const SolveContext& context,
                                               Schedule schedule) {
  // TOP prices nothing after generation, so a plain schedule suffices.
  SolverStats stats;

  // The initial scores come from the grid the whole greedy family shares
  // (core/score_gen.h), sharded by SolverOptions::threads.
  const size_t num_events = instance.num_events();
  const InitialScores initial = GetInitialScores(instance, options, context);
  const std::vector<double>& grid = initial.grid();
  util::Status termination = initial.generated.termination;

  struct Entry {
    EventIndex event;
    IntervalIndex interval;
    double score;
  };
  std::vector<Entry> entries;
  // Ranking and walking only happen on a complete grid (a truncated one
  // would be biased toward low intervals, and sorting it after the
  // budget expired would be pure wasted work). Entries are read in
  // t-major, e-minor order, so the sort sees the same sequence at every
  // thread count.
  if (termination.ok()) {
    entries.reserve(grid.size());
    for (IntervalIndex t = 0; t < instance.num_intervals(); ++t) {
      for (EventIndex e = 0; e < num_events; ++e) {
        if (schedule.IsAssigned(e)) continue;  // warm-started
        entries.push_back(
            {e, t, grid[static_cast<size_t>(t) * num_events + e]});
      }
    }
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) {
                return a.score > b.score;
              });
  }

  // Entries are cheap to skip, so the context is polled on a stride.
  const size_t k = static_cast<size_t>(options.k);
  uint64_t polls = 0;
  for (const Entry& entry : entries) {
    if ((polls++ & 63) == 0 && context.CheckStop(&termination)) break;
    context.CountWork(1);
    if (schedule.size() >= k) break;
    ++stats.pops;
    if (!schedule.CanAssign(entry.event, entry.interval)) continue;
    SES_CHECK(schedule.Assign(entry.event, entry.interval).ok());
  }

  // Generation is TOP's only Eq. 4 work.
  stats.gain_evaluations = initial.generated.gain_evaluations;
  return SolveOutcome{std::move(schedule), stats, std::move(termination)};
}

}  // namespace ses::core
