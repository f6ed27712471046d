#ifndef SES_CORE_TOP_K_H_
#define SES_CORE_TOP_K_H_

/// \file
/// TOP — the paper's first baseline: compute the initial assignment
/// scores of all (event, interval) pairs once, then walk them in
/// descending score order taking every valid assignment until k are
/// placed. No score updates are ever performed, which is exactly why TOP
/// is fast but inaccurate: it prices every assignment as if its interval
/// were empty.

#include "core/solver.h"

namespace ses::core {

/// The TOP baseline.
class TopKSolver final : public Solver {
 public:
  std::string_view name() const override { return "top"; }

 protected:
  [[nodiscard]] util::Result<SolveOutcome> DoSolve(
      const SesInstance& instance, const SolverOptions& options,
      const SolveContext& context, Schedule start) override;
};

}  // namespace ses::core

#endif  // SES_CORE_TOP_K_H_
