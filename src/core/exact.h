#ifndef SES_CORE_EXACT_H_
#define SES_CORE_EXACT_H_

/// \file
/// Exact branch-and-bound solver for small SES instances.
///
/// SES is strongly NP-hard (paper Theorem 1), so this solver is strictly
/// a quality yardstick: tests compare GRD/TOP/RAND utilities against the
/// optimum on instances with a handful of events and intervals.
///
/// Search space: schedules are *sets* of assignments, so the search
/// enumerates events in increasing index order (combination enumeration,
/// no permutations) and tries every interval — plus "skip" — for each.
/// Bound: a marginal gain can never exceed the empty-schedule score of
/// the same assignment (gains are non-increasing in the scheduled mass,
/// see core/attendance.h), so
///
///   Omega(S extended by k' more events) <= Omega(S) + sum of the k'
///     largest empty-schedule event scores among remaining events.
///
/// Nodes whose bound cannot beat the incumbent are pruned.

#include "core/solver.h"

namespace ses::core {

/// Exhaustive branch-and-bound; fails with ResourceExhausted when the
/// node budget (options.max_nodes) is hit.
class ExactSolver final : public Solver {
 public:
  std::string_view name() const override { return "exact"; }

 protected:
  [[nodiscard]] util::Result<SolveOutcome> DoSolve(
      const SesInstance& instance, const SolverOptions& options,
      const SolveContext& context, Schedule start) override;
};

}  // namespace ses::core

#endif  // SES_CORE_EXACT_H_
