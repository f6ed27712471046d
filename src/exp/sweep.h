#ifndef SES_EXP_SWEEP_H_
#define SES_EXP_SWEEP_H_

/// \file
/// The sweep executor behind every figure reproduction in bench/: build
/// each sweep point's workload, run a set of solvers on it, and collect
/// one RunRecord per (point, solver). Repeated sweeps run each point on
/// several workload seeds and aggregate utility/time into summary
/// statistics, so figure series carry error bars instead of single draws.
///
/// Determinism contract: for a fixed point list, RunSweep returns the
/// same records in the same order at any `jobs` value and any
/// SolverOptions::threads value. Every comparable RunRecord field is
/// bitwise reproducible; only the wall-clock `measurement` differs. Each
/// point carries its own workload seed and solver seed, so no state
/// leaks between points, and WorkloadFactory::Build is thread-safe.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/solver.h"
#include "exp/workload.h"
#include "util/stats.h"
#include "util/status.h"

namespace ses::exp {

/// Wall-clock measurement of one run. Split from RunRecord's comparable
/// fields: `seconds` is the only value that differs between reruns and
/// lane counts, so keeping it out of the comparable struct lets CSV
/// diffs and record comparisons be byte-exact.
struct RunMeasurement {
  double seconds = 0.0;
};

/// One measurement row. Every direct field is deterministic — identical
/// at any `jobs` value and across reruns; the wall-clock part lives in
/// `measurement`.
struct RunRecord {
  std::string solver;
  /// The sweep coordinate (k or |T|, depending on the experiment).
  int64_t x = 0;
  double utility = 0.0;
  uint64_t gain_evaluations = 0;
  size_t assignments = 0;
  /// Non-comparable wall-clock measurement.
  RunMeasurement measurement;
};

/// One independent unit of sweep work: a workload to build and the solver
/// options to run on it, tagged with the sweep coordinate \p x.
struct SweepPoint {
  PaperWorkloadConfig config;
  core::SolverOptions options;
  int64_t x = 0;
};

/// Builds each point's instance via \p factory, runs every solver in
/// \p solvers on it and validates each schedule. Records come back in
/// point order, and within a point in \p solvers order.
///
/// Everything runs on one pool of max(2, cores) - 1 workers plus the
/// calling thread: point builds, solver runs, and the solvers' score-
/// generation shards (SolverOptions::pool is set to it). Each lane takes
/// the next unit from one work queue: a solver of a built point if any
/// is waiting, else the next point to build. \p jobs caps the lanes: 0
/// means every lane, 1 runs every point and solver on the calling thread
/// in record order (score generation still shards per
/// SolverOptions::threads), and values above the lane count change
/// nothing.
///
/// Unknown solver names fail with NotFound before any point is built. A
/// failed build, a solver error or early termination, or a schedule
/// that fails validation is a failure: points not yet started are
/// skipped, and the lowest-index recorded failure is returned.
[[nodiscard]] util::Result<std::vector<RunRecord>> RunSweep(
    const WorkloadFactory& factory, const std::vector<SweepPoint>& points,
    const std::vector<std::string>& solvers, size_t jobs);

/// Aggregated measurements of one (sweep coordinate, solver) cell.
struct SweepCell {
  int64_t x = 0;
  std::string solver;
  util::Summary utility;
  util::Summary seconds;
};

/// Maps a sweep coordinate and repetition seed to a workload config.
using ConfigFactory =
    std::function<PaperWorkloadConfig(int64_t x, uint64_t seed)>;

/// Runs \p solvers on every x in \p xs, \p repetitions times each with
/// distinct seeds, and aggregates per (x, solver).
///
/// The solver's k is taken from the generated config's k. The (x, rep)
/// cells are RunSweep points, run with \p jobs (the default of 1 keeps
/// the `seconds` aggregates free of CPU contention). Per-cell seeding
/// makes the utility aggregates identical at every \p jobs value.
/// \p solver_threads is forwarded to SolverOptions::threads (score-
/// generation shards); utility aggregates are bit-identical at any value.
[[nodiscard]] util::Result<std::vector<SweepCell>> RunRepeatedSweep(
    const WorkloadFactory& factory, const std::vector<int64_t>& xs,
    const ConfigFactory& make_config,
    const std::vector<std::string>& solvers, int repetitions,
    uint64_t base_seed, size_t jobs = 1, int64_t solver_threads = 1);

/// Renders cells as "mean +- sd" per column, rows keyed by x.
std::string RenderSweepTable(const std::string& title,
                             const std::string& x_label,
                             const std::vector<std::string>& solver_order,
                             const std::vector<SweepCell>& cells,
                             bool show_seconds);

}  // namespace ses::exp

#endif  // SES_EXP_SWEEP_H_
