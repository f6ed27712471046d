#ifndef SES_CORE_SCORE_GEN_H_
#define SES_CORE_SCORE_GEN_H_

/// \file
/// Assignment-score generation shared by the greedy family (Algorithm 1,
/// lines 2-4 of the paper): the marginal gain of every (event, interval)
/// pair under the warm-start-only schedule. TOP, GRD, lazy greedy and
/// bestfit all read their initial scores from the one grid this fills.
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
/// Determinism contract: every cell bit-equals MarginalGain(e, t) on a
/// fresh model holding the warm start, at every shard count, the serial
/// path included. Each block lane folds D in the model's order and sums
/// its own accumulator in user order, and with M = 0 the model's term
/// reduces to the block's exactly (tests/core_kernel_diff_test.cc,
/// ScoreGridMatchesPerPairSweep). Solvers that assemble their candidate
/// list from the grid in serial (t-major, e-minor) order therefore
/// produce byte-identical results at any SolverOptions::threads value.

#include <cstdint>
#include <vector>

#include "core/instance.h"
#include "core/solve_context.h"
#include "core/solver.h"
#include "util/status.h"

namespace ses::core {

/// Outcome of one generation pass.
struct ScoreGenResult {
  /// Eq. 4 evaluations performed by the generation engines, which are
  /// never the caller's own model: on a completed pass, the number of
  /// unassigned (event, interval) pairs, at every shard count. Solvers
  /// report model.gain_evaluations() + this, which equals the count of
  /// one model scoring everything itself.
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
/// warm start must already be validated (the caller applied it to its
/// own model) — shard models replay it and treat failure as a
/// programming error.
ScoreGenResult GenerateAssignmentScores(const SesInstance& instance,
                                        const SolverOptions& options,
                                        const SolveContext& context,
                                        std::vector<double>& scores);

}  // namespace ses::core

#endif  // SES_CORE_SCORE_GEN_H_
