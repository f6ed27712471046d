#include "core/solver.h"

#include "core/objective.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace ses::core {

util::Result<SolverResult> Solver::Solve(const SesInstance& instance,
                                         const SolverOptions& options,
                                         const SolveContext& context) {
  SES_RETURN_IF_ERROR(ValidateSolverOptions(instance, options));
  util::WallTimer timer;
  Schedule start(instance);
  SES_RETURN_IF_ERROR(ApplyWarmStart(start, options.warm_start));
  SES_ASSIGN_OR_RETURN(SolveOutcome outcome,
                       DoSolve(instance, options, context, std::move(start)));

  SolverResult result;
  result.assignments = outcome.schedule.Assignments();
  result.utility = TotalUtility(instance, outcome.schedule);
  result.wall_seconds = timer.ElapsedSeconds();
  result.stats = outcome.stats;
  result.solver = std::string(name());
  result.termination = std::move(outcome.termination);
  return result;
}

util::Status ValidateSolverOptions(const SesInstance& instance,
                                   const SolverOptions& options) {
  if (options.k <= 0) {
    return util::Status::InvalidArgument(
        util::StrFormat("k must be positive, got %lld",
                        static_cast<long long>(options.k)));
  }
  if (options.k > instance.num_events()) {
    return util::Status::InvalidArgument(util::StrFormat(
        "k=%lld exceeds the number of candidate events (%u)",
        static_cast<long long>(options.k), instance.num_events()));
  }
  if (options.threads < 0) {
    return util::Status::InvalidArgument(util::StrFormat(
        "threads must be >= 0, got %lld",
        static_cast<long long>(options.threads)));
  }
  if (!options.warm_start.empty()) {
    if (options.warm_start.size() > static_cast<size_t>(options.k)) {
      return util::Status::InvalidArgument(util::StrFormat(
          "warm start holds %zu assignments but k is only %lld",
          options.warm_start.size(), static_cast<long long>(options.k)));
    }
    Schedule replay(instance);
    SES_RETURN_IF_ERROR(ApplyWarmStart(replay, options.warm_start));
  }
  return util::Status::Ok();
}

}  // namespace ses::core
