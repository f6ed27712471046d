#ifndef SES_CORE_SOLVER_H_
#define SES_CORE_SOLVER_H_

/// \file
/// Common interface of all SES solvers (the paper's GRD, TOP, RAND plus
/// this library's extensions).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/instance.h"
#include "core/schedule.h"
#include "core/solve_context.h"
#include "core/types.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace ses::core {

/// Tuning knobs shared by every solver. Unused fields are ignored.
struct SolverOptions {
  /// Number of assignments to schedule (the paper's k).
  int64_t k = 100;
  /// PRNG seed for randomized solvers.
  uint64_t seed = 1;

  /// Pre-committed assignments (incremental re-planning): the solver
  /// starts from this partial schedule and extends it to k assignments.
  /// Must be feasible and hold at most k assignments. No solver moves
  /// a committed assignment. Use case: the organizer already announced
  /// some events and the budget k grew, or a new planning round starts
  /// from last week's program.
  std::vector<Assignment> warm_start;

  /// Exact solver: node budget before giving up with ResourceExhausted.
  uint64_t max_nodes = 50000000;

  /// Intra-solver parallelism for assignment-score generation (TOP, GRD
  /// and bestfit): the maximum number of generation shards. 1
  /// (default) is the serial reference path; 0 means one shard per
  /// available lane (pool workers plus the calling thread); N > 1 caps
  /// the shard count at N. Results are bit-identical to the serial path
  /// regardless of this value — only wall-clock time changes.
  int64_t threads = 1;

  /// Borrowed pool for score-generation shards; not owned, may be null.
  /// api::Scheduler fills this in with its own pool for requests that
  /// ask for threads != 1 (ThreadPool::ParallelForShards is safe to call
  /// from a pool worker, so fan-out solvers and intra-solver shards share
  /// one pool). When null and threads != 1, solvers spin up a transient pool
  /// for the generation pass.
  util::ThreadPool* pool = nullptr;
};

/// Work counters reported by solvers for the paper's complexity analysis.
struct SolverStats {
  /// Eq. 4 evaluations performed (initial scores + updates + probes).
  /// Twins (events with one profile, core/instance.h) share a gain, so
  /// the score fill and the greedy update pass evaluate each profile
  /// once per interval and copy the gain to the twins. A borrowed
  /// session score grid (SolveContext::score_grid) counts what a fresh
  /// fill with no warm start performs: distinct candidate profiles x |T|.
  uint64_t gain_evaluations = 0;
  /// Selections: GRD's popTopAssgn operations that placed an
  /// assignment, bestfit's placements, and the ranked entries TOP
  /// walked.
  uint64_t pops = 0;
  /// Score cells rescored after selections, twins included: GRD's
  /// whole chosen row, bestfit's cells of the events it can still visit
  /// (core/best_fit.h).
  uint64_t updates = 0;
  /// Branch-and-bound nodes (exact solver).
  uint64_t nodes = 0;
  /// Random (event, interval) pairs drawn (RAND).
  uint64_t moves_tried = 0;
};

/// Outcome of one solver run.
struct SolverResult {
  /// The chosen assignments, sorted by (interval, event). May hold fewer
  /// than k entries when no more valid assignments existed — or when the
  /// run stopped early (see `termination`).
  std::vector<Assignment> assignments;
  /// Total utility Omega (Eq. 3) of the schedule, from the reference
  /// objective (core/objective.h).
  double utility = 0.0;
  /// Wall-clock seconds spent inside Solve().
  double wall_seconds = 0.0;
  /// Work counters.
  SolverStats stats;
  /// Name of the producing solver ("grd", "top", ...).
  std::string solver;
  /// OK when the solver ran to completion. kDeadlineExceeded / kCancelled
  /// when the SolveContext stopped it early; `assignments` then holds the
  /// best feasible schedule found so far (possibly empty).
  util::Status termination;
};

/// What an implementation hands back to Solver::Solve.
struct SolveOutcome {
  /// The schedule built, warm start included.
  Schedule schedule;
  /// Work counters.
  SolverStats stats;
  /// OK, or the SolveContext's stop status (SolverResult::termination).
  util::Status termination;
};

/// Abstract solver.
///
/// Callers use the non-virtual Solve(), the one solve frame: it
/// validates options, starts the clock, replays the warm start into a
/// Schedule, dispatches to DoSolve, and assembles SolverResult from the
/// outcome, pricing its schedule with TotalUtility (core/objective.h).
/// Passing a SolveContext bounds the run: every solver polls it at
/// iteration boundaries and, on expiry or cancellation, returns the best
/// feasible schedule found so far with SolverResult::termination set
/// (the Result itself stays OK).
class Solver {
 public:
  virtual ~Solver() = default;

  /// Stable lowercase identifier ("grd", "top", "rand", ...).
  virtual std::string_view name() const = 0;

  /// Computes a feasible schedule with (up to) options.k assignments,
  /// honoring \p context's deadline and cancellation token.
  [[nodiscard]] util::Result<SolverResult> Solve(
      const SesInstance& instance, const SolverOptions& options,
      const SolveContext& context = SolveContext());

 protected:
  /// Implementation hook; options are already validated, and \p start
  /// holds options.warm_start. The outcome's schedule extends it.
  [[nodiscard]] virtual util::Result<SolveOutcome> DoSolve(
      const SesInstance& instance, const SolverOptions& options,
      const SolveContext& context, Schedule start) = 0;
};

/// Shared helper: validates options against the instance (k positive and
/// not above |E|, threads >= 0, and a warm start of at most k
/// assignments that ApplyWarmStart replays onto an empty schedule).
[[nodiscard]] util::Status ValidateSolverOptions(const SesInstance& instance,
                                   const SolverOptions& options);

}  // namespace ses::core

#endif  // SES_CORE_SOLVER_H_
