#ifndef SES_CORE_RANDOM_SCHEDULE_H_
#define SES_CORE_RANDOM_SCHEDULE_H_

/// \file
/// RAND — the paper's second baseline: assign events to intervals
/// uniformly at random, keeping every valid assignment, until k events
/// are scheduled (or the pair space is exhausted).

#include "core/solver.h"

namespace ses::core {

/// The RAND baseline.
class RandomSolver final : public Solver {
 public:
  std::string_view name() const override { return "rand"; }

 protected:
  [[nodiscard]] util::Result<SolveOutcome> DoSolve(
      const SesInstance& instance, const SolverOptions& options,
      const SolveContext& context, Schedule start) override;
};

}  // namespace ses::core

#endif  // SES_CORE_RANDOM_SCHEDULE_H_
