#ifndef SES_CORE_GREEDY_H_
#define SES_CORE_GREEDY_H_

/// \file
/// GRD — the paper's greedy approximation algorithm (Algorithm 1) — on
/// the dense |T| x |E| score grid.
///
/// GRD first computes the assignment score (Eq. 4) of every (event,
/// interval) pair (lines 2-4, core/score_gen.h). It then repeats k times:
/// take the top valid assignment, insert it into the schedule, and
/// recompute the scores of the assignments that refer to the chosen
/// interval (lines 5-13). Scores of other intervals are unaffected: Eq. 4
/// only depends on the events co-located in the assignment's interval.
///
/// The grid is the paper's list L. A cell that fails CanAssign holds
/// kNoScore (-inf): every such cell is set once up front, the chosen
/// event's column after each selection, and the chosen interval's row
/// by its update pass (AttendanceModel::RescoreRow). The top valid
/// assignment is the first strict maximum in (interval, event) order,
/// and the run ends early when that maximum is kNoScore. Exact score
/// ties are common (twin events have identical interest rows); this
/// order breaks them toward the lowest interval, then the lowest event.
///
/// GRD finds that cell without scanning the grid. It keeps the first
/// maximum of each interval row and takes the first largest of the |T|
/// row maxima, which is the grid's first strict maximum. A selection
/// changes two kinds of rows. The chosen interval's row is rewritten by
/// its update pass and then scanned again. A row whose maximum was the
/// chosen event loses that cell to the column mask; its earlier cells
/// were below the old value and its later ones not above it, so the
/// first later cell equal to that value (often a twin, whose gain is
/// bit-equal) is the new maximum, and only a row without one is
/// scanned again. Every other row keeps its maximum.
///
/// The registry also serves GRD as "lazy". That name once meant a
/// CELF-style variant (Leskovec et al., KDD'07) that deferred rescoring.
/// On this grid it selected GRD's schedule on every instance tried and
/// saved about 1% of the evaluations, so the name now runs GRD.

#include <string>
#include <utility>

#include "core/solver.h"

namespace ses::core {

/// The paper's GRD: rescores the chosen interval after every selection.
class GreedySolver final : public Solver {
 public:
  /// \p name is the registered name results report: "grd" or "lazy".
  explicit GreedySolver(std::string name = "grd") : name_(std::move(name)) {}

  std::string_view name() const override { return name_; }

 protected:
  [[nodiscard]] util::Result<SolveOutcome> DoSolve(
      const SesInstance& instance, const SolverOptions& options,
      const SolveContext& context, Schedule start) override;

 private:
  std::string name_;
};

}  // namespace ses::core

#endif  // SES_CORE_GREEDY_H_
