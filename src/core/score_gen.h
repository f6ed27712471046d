#ifndef SES_CORE_SCORE_GEN_H_
#define SES_CORE_SCORE_GEN_H_

/// \file
/// Assignment-score generation shared by the constructive solvers
/// (Algorithm 1, lines 2-4 of the paper): the marginal gain of every
/// (event, interval) pair under the warm-start-only schedule. This
/// O(|E|·|T|) sweep dominates GRD/lazy/bestfit runtime on paper-scale
/// instances and is embarrassingly parallel — no pair's score depends on
/// another — so it shards interval-contiguously across a
/// util::ThreadPool with one private AttendanceModel per shard.
///
/// Determinism contract: the score of (e, t) is a pure function of the
/// instance and the warm start (each shard model replays the warm start
/// in request order and accumulates the same doubles in the same order
/// the serial pass does), so the filled score grid is bit-identical for
/// every shard count, including the serial reference path. Solvers that
/// assemble their candidate list from the grid in serial (t-major,
/// e-minor) order therefore produce byte-identical results at any
/// SolverOptions::threads value.

#include <cstdint>
#include <functional>
#include <vector>

#include "core/attendance.h"
#include "core/instance.h"
#include "core/solve_context.h"
#include "core/solver.h"
#include "util/status.h"

namespace ses::core {

/// Outcome of one generation pass.
struct ScoreGenResult {
  /// Eq. 4 evaluations performed on shard-private engines — i.e. the
  /// evaluations *not* already counted by the caller's own model. Zero
  /// on the serial path (where the caller's model scores everything);
  /// on a completed sharded pass, the number of unassigned
  /// (event, interval) pairs. Solvers report
  /// model.gain_evaluations() + this, which equals the serial
  /// single-model count at every shard count.
  uint64_t gain_evaluations = 0;

  /// OK on a completed pass; the stop status (kDeadlineExceeded /
  /// kCancelled) when \p context interrupted generation. On interruption
  /// the emitted scores cover only a prefix and callers must not select
  /// from them (GRD, lazy and bestfit fall back to returning the warm
  /// start).
  util::Status termination;
};

/// Receives one scored pair during assembly: emit(e, t, score).
using ScoreEmit =
    std::function<void(EventIndex, IntervalIndex, double)>;

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

/// The full generation + assembly stage shared by GRD and lazy greedy:
/// scores every unassigned (e, t) pair under \p model's current
/// (warm-start-only) schedule and invokes \p emit in serial t-major,
/// e-minor order — the order both solvers build their candidate
/// structures in, so the emitted sequence is bit-identical at every
/// SolverOptions::threads value.
///
/// threads == 1 scores directly on \p model (the original in-place loop:
/// no grid, no second engine); otherwise the sharded grid pass above
/// runs first and assembly replays it. Both paths poll \p context at
/// interval boundaries; on a stop the emitted sequence is a prefix and
/// result.termination is the stop status.
ScoreGenResult GenerateScoredAssignments(const SesInstance& instance,
                                         const SolverOptions& options,
                                         const SolveContext& context,
                                         AttendanceModel& model,
                                         const ScoreEmit& emit);

}  // namespace ses::core

#endif  // SES_CORE_SCORE_GEN_H_
