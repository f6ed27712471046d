#ifndef SES_CORE_SCORE_GEN_H_
#define SES_CORE_SCORE_GEN_H_

/// \file
/// Assignment-score generation shared by the greedy family (Algorithm 1,
/// lines 2-4 of the paper): the marginal gain of every (event, interval)
/// pair under the warm-start-only schedule. TOP, GRD and bestfit all
/// read their initial scores from the one grid this fills.
/// The O(|E|·|T|) sweep dominates their runtime on paper-scale
/// instances and is embarrassingly parallel — no pair's score depends
/// on another — so it shards interval-contiguously across a
/// util::ThreadPool.
///
/// Each shard gathers its intervals with no warm-started event, adjacent
/// or not, into blocks of IntervalBlock::kWidth: one
/// kernels::LuceGainBlock pass over each event's interest row yields
/// that event's gain at every interval of the block. M = 0 at those
/// intervals, so the Eq. 4 term is x / (D + x). Only a shard's last
/// block can be partial. An interval that holds a warm-started event
/// (M != 0) is scored per pair through AttendanceModel::MarginalGain on
/// a shard model that replays the warm start; a shard builds that model
/// only when the warm start is non-empty.
///
/// Twins (events with one profile, see core/instance.h) score alike, so
/// each profile is scored once per interval: only the first unassigned
/// event of a profile runs the kernel or MarginalGain, and its twins
/// copy its cells.
///
/// Determinism contract: every cell bit-equals MarginalGain(e, t) on a
/// fresh model holding the warm start, at every shard count, the serial
/// path included. Each block lane folds D in the model's order and sums
/// its own accumulator in user order, and with M = 0 the model's term
/// reduces to the block's exactly (tests/core_kernel_diff_test.cc,
/// ScoreGridMatchesPerPairSweep). Solvers that read the grid in one
/// fixed order therefore produce byte-identical results at any
/// SolverOptions::threads value.
///
/// Session reuse: with no warm start the grid is a pure function of the
/// instance. A ScoreGridCache keeps the first complete one and
/// GetInitialScores lends it to later solves; by the contract above it
/// bit-equals a fresh fill of the same instance at every shard count.

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/instance.h"
#include "core/solve_context.h"
#include "core/solver.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace ses::core {

/// Outcome of one generation pass.
struct ScoreGenResult {
  /// Eq. 4 evaluations performed by the generation engines, which are
  /// never the caller's own model: on a completed pass, (distinct
  /// profiles among the unassigned events) x |T|, at every shard count.
  /// Solvers report model.gain_evaluations() + this.
  uint64_t gain_evaluations = 0;

  /// OK on a completed pass; the stop status (kDeadlineExceeded /
  /// kCancelled) when \p context interrupted generation. On interruption
  /// each shard's grid rows cover only part of its intervals and callers
  /// must not select from it (the greedy family falls back to
  /// returning the warm start).
  util::Status termination;
};

/// Fills scores[t * instance.num_events() + e] with the marginal gain of
/// assigning event \p e to interval \p t under the warm-start-only
/// schedule, for every unassigned event and every interval. Entries of
/// warm-started events are left untouched. \p scores must be pre-sized
/// to num_intervals() * num_events().
///
/// options.threads selects the shard count (see SolverOptions); shards
/// run on options.pool when set, else on a transient local pool. The
/// warm start must already be validated (ValidateSolverOptions; Solver::
/// Solve has replayed it) — each shard model starts from its own replay
/// and treats failure as a programming error.
ScoreGenResult GenerateAssignmentScores(const SesInstance& instance,
                                        const SolverOptions& options,
                                        const SolveContext& context,
                                        std::vector<double>& scores);

/// One instance's published empty-warm-start score grid. api::Scheduler
/// keeps one per loaded instance and lends it through
/// SolveContext::score_grid. Thread-safe; mutex_ is a leaf that covers
/// only the shared_ptr copy or store.
class ScoreGridCache {
 public:
  /// \p reused is bumped once per Get that finds a grid.
  ScoreGridCache(const SesInstance& instance, util::Counter& reused)
      : instance_(&instance), reused_(reused) {}

  ScoreGridCache(const ScoreGridCache&) = delete;
  ScoreGridCache& operator=(const ScoreGridCache&) = delete;

  /// The published grid, or null when none is published yet.
  /// \p instance must be the one this cache belongs to.
  std::shared_ptr<const std::vector<double>> Get(
      const SesInstance& instance) const SES_EXCLUDES(mutex_);

  /// Publishes \p grid, a complete empty-warm-start fill of \p instance,
  /// unless a grid is already published: the first offer wins.
  void Offer(const SesInstance& instance,
             std::shared_ptr<const std::vector<double>> grid)
      SES_EXCLUDES(mutex_);

 private:
  const SesInstance* const instance_;
  util::Counter& reused_;
  mutable util::Mutex mutex_;
  std::shared_ptr<const std::vector<double>> grid_ SES_GUARDED_BY(mutex_);
};

/// A greedy-family solve's initial scores, laid out as
/// GenerateAssignmentScores fills them.
struct InitialScores {
  /// The session's grid: borrowed, or this solve's own complete fill
  /// once offered to the cache. Null otherwise.
  std::shared_ptr<const std::vector<double>> shared;

  /// This solve's own fill when no cache took it.
  std::vector<double> owned;

  /// The fill's outcome. A borrowed grid reports an OK pass with the
  /// evaluations a fresh fill with no warm start counts: distinct
  /// candidate profiles x |T|.
  ScoreGenResult generated;

  /// The grid to read.
  const std::vector<double>& grid() const {
    return shared != nullptr ? *shared : owned;
  }

  /// The grid to rewrite: the owned fill, moved out, or a copy of the
  /// shared grid, which other solves may be reading.
  std::vector<double> TakeGrid() {
    if (shared != nullptr) return *shared;
    return std::move(owned);
  }
};

/// The one way TOP, GRD and bestfit get their initial scores. With
/// context.score_grid set, an empty warm start and a published grid, it
/// borrows that grid. Otherwise it fills one through
/// GenerateAssignmentScores and, when a cache is attached and the fill
/// completed, moves it into `shared` and offers it.
InitialScores GetInitialScores(const SesInstance& instance,
                               const SolverOptions& options,
                               const SolveContext& context);

}  // namespace ses::core

#endif  // SES_CORE_SCORE_GEN_H_
