#include "core/random_schedule.h"

#include "core/schedule.h"
#include "util/random.h"

namespace ses::core {

util::Result<SolveOutcome> RandomSolver::DoSolve(
    const SesInstance& instance, const SolverOptions& options,
    const SolveContext& context, Schedule schedule) {
  util::Rng rng(options.seed);
  SolverStats stats;
  util::Status termination;
  // Both loops below are tight (no gain evaluations), so the context is
  // polled on a stride rather than every draw.
  uint64_t polls = 0;
  const size_t k = static_cast<size_t>(options.k);

  // A random permutation of all (event, interval) pairs, materialized
  // lazily: pick random pairs with rejection first (cheap when the pair
  // space is much larger than k), then fall back to an exhaustive shuffled
  // sweep to guarantee termination.
  const uint64_t pair_space = static_cast<uint64_t>(instance.num_events()) *
                              instance.num_intervals();
  uint64_t rejections = 0;
  const uint64_t rejection_budget = 16 * (pair_space + 1);
  while (schedule.size() < k && rejections < rejection_budget) {
    if ((polls++ & 63) == 0 && context.CheckStop(&termination)) break;
    context.CountWork(1);
    const uint64_t pick = rng.NextBounded(pair_space);
    const EventIndex e = static_cast<EventIndex>(pick % instance.num_events());
    const IntervalIndex t =
        static_cast<IntervalIndex>(pick / instance.num_events());
    ++stats.moves_tried;
    if (schedule.CanAssign(e, t)) {
      SES_CHECK(schedule.Assign(e, t).ok());
    } else {
      ++rejections;
    }
  }
  if (termination.ok() && schedule.size() < k) {
    // Exhaustive fallback: visit every pair in random order.
    std::vector<uint64_t> pairs(pair_space);
    for (uint64_t i = 0; i < pair_space; ++i) pairs[i] = i;
    util::Shuffle(pairs, rng);
    for (uint64_t pick : pairs) {
      if ((polls++ & 63) == 0 && context.CheckStop(&termination)) break;
      context.CountWork(1);
      if (schedule.size() >= k) break;
      const EventIndex e =
          static_cast<EventIndex>(pick % instance.num_events());
      const IntervalIndex t =
          static_cast<IntervalIndex>(pick / instance.num_events());
      ++stats.moves_tried;
      if (schedule.CanAssign(e, t)) {
        SES_CHECK(schedule.Assign(e, t).ok());
      }
    }
  }

  return SolveOutcome{std::move(schedule), stats, std::move(termination)};
}

}  // namespace ses::core
