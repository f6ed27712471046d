#ifndef SES_CORE_BEST_FIT_H_
#define SES_CORE_BEST_FIT_H_

/// \file
/// BESTFIT — an event-major greedy variant (extension beyond the paper).
///
/// GRD is pair-major: it maintains scores for all |E| x |T| assignments
/// and repeatedly takes the global top, paying for score updates across
/// the chosen interval. BESTFIT instead fixes the *order of events* up
/// front (by their best empty-schedule score, an optimistic priority,
/// equal priorities in ascending event order) and then gives each event
/// in turn its currently-best feasible interval.
///
/// Both passes run on one dense |T| x |E| score grid. Pass 1 fills it
/// with the generation stage TOP and GRD share (core/score_gen.h), so it
/// shards across SolverOptions::threads with the same bit-identity. Pass
/// 2 reads each event's candidate scores from the grid and, after every
/// placement, rescores the chosen interval's cells with GRD's update
/// pass (AttendanceModel::RescoreRow), on the interval the engine
/// already has loaded. Scores of other intervals cannot change (an
/// event's gain depends only on its own interval), so every score read
/// is the fresh gain bit for bit.
///
/// Cost: |E||T| initial evaluations (the same pass as TOP) plus one
/// refresh per placement, of the chosen interval's cells for a window of
/// events: the ones after the placed event in visit order, up to a
/// horizon that covers the first k - |warm start| events left to place.
/// While every visit places its event, bestfit reaches k inside the
/// window, so no cell past it is ever read. The first event with no
/// feasible interval (a skip) moves the horizon to the end: each row
/// placed so far is rescored once for the events past the old horizon,
/// which no window covered, and each later refresh covers every later
/// event. The work is thus at most the cells of whole-row refreshes
/// (k|E|) plus one interval reload per placed row. Cells are counted in
/// SolverStats::updates. At paper scale (k = 200 of |E| = 400) the
/// windows hold 4,127 profile gains where whole rows hold 26,052. GRD
/// refreshes whole rows, since any event may be its next pick. Quality
/// sits between TOP and GRD: event order is decided on stale
/// information, but interval choice is always fresh. The ablation bench
/// quantifies that trade.

#include "core/solver.h"

namespace ses::core {

/// Event-major greedy.
class BestFitSolver final : public Solver {
 public:
  std::string_view name() const override { return "bestfit"; }

 protected:
  [[nodiscard]] util::Result<SolveOutcome> DoSolve(
      const SesInstance& instance, const SolverOptions& options,
      const SolveContext& context, Schedule start) override;
};

}  // namespace ses::core

#endif  // SES_CORE_BEST_FIT_H_
