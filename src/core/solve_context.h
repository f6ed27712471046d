#ifndef SES_CORE_SOLVE_CONTEXT_H_
#define SES_CORE_SOLVE_CONTEXT_H_

/// \file
/// Execution context threaded through every Solver::Solve call: a
/// wall-clock deadline, a cooperative cancellation token, an optional
/// work-counter hook for external progress accounting, and an optional
/// score grid shared across the solves of one serving session.
///
/// Solvers poll the context at their iteration boundaries (grid scans,
/// ranked entries, branch-and-bound nodes, random draws). When the
/// context says stop, the solver returns normally with the best feasible
/// schedule found so far and marks SolverResult::termination with
/// kDeadlineExceeded or kCancelled — budgeted best-effort answers instead
/// of all-or-nothing runs, which is what the ses::api serving layer needs.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include "util/status.h"

namespace ses::core {

class ScoreGridCache;  // core/score_gen.h

/// A wall-clock budget. Default-constructed deadlines never expire.
class Deadline {
 public:
  /// No limit.
  Deadline() = default;

  /// Never expires.
  static Deadline Unlimited() { return Deadline(); }

  /// Expires \p seconds from now. Non-positive budgets are already
  /// expired — useful for "validate + give me anything feasible" probes.
  static Deadline After(double seconds) {
    Deadline deadline;
    deadline.limited_ = true;
    deadline.at_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
    return deadline;
  }

  /// True when this deadline can never expire.
  bool unlimited() const { return !limited_; }

  /// True once the budget has elapsed. Unlimited deadlines never expire.
  bool Expired() const { return limited_ && Clock::now() >= at_; }

 private:
  using Clock = std::chrono::steady_clock;
  bool limited_ = false;
  Clock::time_point at_{};
};

/// Cooperative cancellation flag, shared between the caller (who cancels)
/// and the running solver (which polls). Thread-safe.
class CancelToken {
 public:
  /// Requests cancellation; the solve returns at its next poll.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// True once Cancel() was called.
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Why a solver should stop early (kNone = keep going).
enum class StopReason {
  kNone,
  kCancelled,
  kDeadlineExceeded,
};

/// Per-solve execution context. Cheap to copy; default state imposes no
/// limits, so `Solve(instance, options)` behaves exactly as before.
struct SolveContext {
  /// Wall-clock budget; unlimited by default.
  Deadline deadline;

  /// Optional cancellation token; null means not cancellable.
  std::shared_ptr<const CancelToken> cancel;

  /// Optional externally-owned counter that solvers bump at iteration
  /// boundaries, so a caller can watch progress of an in-flight solve.
  std::atomic<uint64_t>* work_counter = nullptr;

  /// Optional externally-owned score grid of this instance, shared
  /// across solves (core/score_gen.h). Greedy-family solves with no warm
  /// start borrow its grid once published, and offer their own complete
  /// fill otherwise. Like work_counter, it changes no result: a borrowed
  /// grid bit-equals a fresh fill.
  ScoreGridCache* score_grid = nullptr;

  /// Polls cancellation first (explicit intent wins), then the deadline.
  /// Allocation-free: safe to call on hot paths.
  StopReason ShouldStop() const {
    if (cancel && cancel->cancelled()) return StopReason::kCancelled;
    if (deadline.Expired()) return StopReason::kDeadlineExceeded;
    return StopReason::kNone;
  }

  /// Polls ShouldStop(); on a stop fills \p termination with the typed
  /// status and returns true. The common solver idiom is
  ///   if (context.CheckStop(&termination)) break;
  bool CheckStop(util::Status* termination) const {
    const StopReason reason = ShouldStop();
    if (reason == StopReason::kNone) return false;
    *termination = StopStatus(reason);
    return true;
  }

  /// Adds \p units to the work counter, if one is attached.
  void CountWork(uint64_t units) const {
    if (work_counter != nullptr) {
      work_counter->fetch_add(units, std::memory_order_relaxed);
    }
  }

  /// Status for a stop reason; OK for kNone.
  [[nodiscard]] static util::Status StopStatus(StopReason reason) {
    switch (reason) {
      case StopReason::kNone:
        return util::Status::Ok();
      case StopReason::kCancelled:
        return util::Status::Cancelled("solve cancelled by caller");
      case StopReason::kDeadlineExceeded:
        return util::Status::DeadlineExceeded("solve deadline exceeded");
    }
    return util::Status::Internal("unknown stop reason");
  }
};

}  // namespace ses::core

#endif  // SES_CORE_SOLVE_CONTEXT_H_
