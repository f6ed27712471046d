#include "core/score_gen.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "core/attendance.h"
#include "util/hot_annotations.h"
#include "util/logging.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace ses::core {

namespace {

/// Scores intervals [lo, hi) on \p model, writing into the dense grid.
/// Returns the number of evaluations; sets \p termination and stops at
/// an interval boundary when the context says so.
///
/// SES_HOT: this is the per-shard fill of the O(|E|·|T|) generation
/// pass — every cell funnels through MarginalGain with no per-cell
/// allocation, locking, or IO.
SES_HOT uint64_t ScoreRange(const SesInstance& instance,
                            AttendanceModel& model,
                            const SolveContext& context, size_t lo, size_t hi,
                            std::vector<double>& scores,
                            util::Status* termination) {
  const size_t num_events = instance.num_events();
  uint64_t evaluations = 0;
  for (size_t t = lo; t < hi; ++t) {
    // Deliberate boundary poll: one deadline/cancellation check per
    // interval row (a clock read), amortized over |E| gain evaluations.
    if (context.CheckStop(termination)) break;  // ses-lint: allow(hot-path) boundary poll, once per |E|-cell row
    // Hoisted restrict row pointer: shards own disjoint [lo, hi) rows,
    // so nothing else aliases this row while we fill it, and the
    // compiler may keep the base address in a register across the row.
    double* SES_RESTRICT row = scores.data() + t * num_events;
    for (EventIndex e = 0; e < num_events; ++e) {
      if (model.schedule().IsAssigned(e)) continue;  // warm-started
      row[e] = model.MarginalGain(e, static_cast<IntervalIndex>(t));
      ++evaluations;
    }
  }
  return evaluations;
}

}  // namespace

ScoreGenResult GenerateAssignmentScores(const SesInstance& instance,
                                        const SolverOptions& options,
                                        const SolveContext& context,
                                        std::vector<double>& scores) {
  const size_t num_intervals = instance.num_intervals();
  SES_CHECK_EQ(scores.size(),
               num_intervals * static_cast<size_t>(instance.num_events()));

  ScoreGenResult result;

  // Resolve the shard budget: 1 = serial, 0 = every available lane.
  size_t max_shards;
  if (options.threads == 1) {
    max_shards = 1;
  } else if (options.threads == 0) {
    max_shards = 0;  // ParallelForShards: workers + caller
  } else {
    max_shards = static_cast<size_t>(options.threads);
  }

  if (max_shards == 1 || num_intervals <= 1) {
    // Serial reference path: one model, no pool.
    AttendanceModel model(instance, options.sigma_cache_capacity);
    SES_CHECK(ApplyWarmStart(model, options.warm_start).ok())
        << "warm start must be validated before score generation";
    result.gain_evaluations = ScoreRange(instance, model, context, 0,
                                         num_intervals, scores,
                                         &result.termination);
    return result;
  }

  util::ThreadPool* pool = options.pool;
  std::unique_ptr<util::ThreadPool> local_pool;
  if (pool == nullptr) {
    // Transient pool for direct Solver::Solve callers without one; the
    // caller participates in shard execution, hence the -1 (also for
    // threads == 0, where "all lanes" means hardware_concurrency lanes
    // total, not hardware_concurrency workers plus the caller). Lanes
    // are capped at the core count: more shards than cores only adds
    // thread-spawn cost, never speed, and an absurd threads value must
    // not translate into that many OS threads.
    const size_t hw = std::max<size_t>(2, std::thread::hardware_concurrency());
    const size_t lanes =
        max_shards == 0 ? hw : std::min<size_t>(max_shards, hw);
    local_pool =
        std::make_unique<util::ThreadPool>(std::max<size_t>(1, lanes - 1));
    pool = local_pool.get();
  }

  std::atomic<uint64_t> evaluations{0};
  /// Cross-shard stop aggregation; a named struct so the guarded-by
  /// relation is annotation-checkable (locals cannot carry
  /// SES_GUARDED_BY on their own).
  struct StopState {
    util::Mutex mutex;
    util::Status first_stop SES_GUARDED_BY(mutex);
  } stop;
  pool->ParallelForShards(
      0, num_intervals, max_shards, [&](size_t lo, size_t hi) {
        // One private model per shard: AttendanceModel keeps per-interval
        // scratch and is not shareable across threads. Replaying the
        // validated warm start puts every model in the exact schedule
        // state the serial pass scores under.
        AttendanceModel model(instance, options.sigma_cache_capacity);
        SES_CHECK(ApplyWarmStart(model, options.warm_start).ok())
            << "warm start must be validated before score generation";
        util::Status termination;
        evaluations.fetch_add(ScoreRange(instance, model, context, lo, hi,
                                         scores, &termination),
                              std::memory_order_relaxed);
        if (!termination.ok()) {
          util::MutexLock lock(stop.mutex);
          if (stop.first_stop.ok()) stop.first_stop = std::move(termination);
        }
      });
  result.gain_evaluations = evaluations.load();
  {
    // ParallelForShards is a barrier, but take the lock for the fan-in
    // read anyway: it is what lets the analysis prove the access, and
    // an uncontended lock here is free next to the sharded loop above.
    util::MutexLock lock(stop.mutex);
    result.termination = std::move(stop.first_stop);
  }
  return result;
}

}  // namespace ses::core
