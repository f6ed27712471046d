#include "core/score_gen.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <thread>

#include "core/attendance.h"
#include "core/kernels.h"
#include "util/hot_annotations.h"
#include "util/logging.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace ses::core {

namespace {

constexpr size_t kWidth = IntervalBlock::kWidth;

/// True when the warm start schedules an event at \p t, so M != 0 there.
bool WarmStarted(const AttendanceModel* model, size_t t) {
  return model != nullptr &&
         !model->schedule().EventsAt(static_cast<IntervalIndex>(t)).empty();
}

/// Per event, its representative: the first unassigned event with the
/// same profile. The fill scores only representatives, and their twins
/// copy their cells; a representative precedes its twins, so its cells
/// in a row or block are written before they are copied. Warm-started
/// events map to kInvalidIndex and keep their cells untouched. They are
/// never representatives, so the next twin of one is scored itself.
std::vector<EventIndex> Representatives(
    const SesInstance& instance, std::span<const Assignment> warm_start) {
  std::vector<EventIndex> representative(instance.num_events(), 0);
  for (const Assignment& a : warm_start) {
    representative[a.event] = kInvalidIndex;
  }
  std::vector<EventIndex> first(instance.num_profiles(), kInvalidIndex);
  for (EventIndex e = 0; e < representative.size(); ++e) {
    if (representative[e] == kInvalidIndex) continue;
    EventIndex& profile_first = first[instance.EventProfile(e)];
    if (profile_first == kInvalidIndex) profile_first = e;
    representative[e] = profile_first;
  }
  return representative;
}

/// Loads the intervals lanes[0 .. width) into the block's lanes: D is
/// the competing mass, folded in CompetingAt order by kernels::AddMass
/// as LoadInterval folds it, and sigma is the provider's row,
/// interleaved. Unused lanes keep D = 0, sigma = 0.
SES_HOT void LoadBlock(const SesInstance& instance, const size_t* lanes,
                       size_t width, IntervalBlock& block) {
  std::fill(block.denom.begin(), block.denom.end(), 0.0);
  std::fill(block.sigma.begin(), block.sigma.end(), 0.0f);
  for (size_t lane = 0; lane < width; ++lane) {
    const auto t = static_cast<IntervalIndex>(lanes[lane]);
    for (CompetingIndex c : instance.CompetingAt(t)) {
      auto users = instance.CompetingUsers(c);
      auto values = instance.CompetingValues(c);
      kernels::AddMass(users.data(), values.data(), users.size(), kWidth,
                       block.denom.data() + lane);
    }
    instance.sigma().FillInterval(t, block.row);  // ses-lint: allow(hot-path) one virtual bulk fill amortized over |U| entries
    float* SES_RESTRICT sigma = block.sigma.data() + lane;
    for (size_t u = 0; u < block.row.size(); ++u) {
      sigma[u * kWidth] = block.row[u];
    }
  }
}

/// Scores intervals [lo, hi) into the dense grid. The intervals with no
/// warm-started event are gathered, adjacent or not, into blocks of
/// kWidth that share one kernels::LuceGainBlock pass per representative's
/// row; only the range's last block can be partial. An interval that
/// holds a warm-started event is scored per representative on \p model,
/// the only path exact for M != 0 (\p model is null when the warm start
/// is empty). Every other unassigned event copies its representative's
/// cells: a gain depends on its event only through the row, so the copy
/// is the gain bit for bit. Returns the number of evaluations; sets
/// \p termination and stops before the next block or row when the
/// context says so.
///
/// SES_HOT: this is the per-shard fill of the O(|E|·|T|) generation
/// pass — no per-cell allocation, locking, or IO.
SES_HOT uint64_t ScoreRange(const SesInstance& instance,
                            std::span<const EventIndex> representative,
                            AttendanceModel* model, IntervalBlock& block,
                            const SolveContext& context, size_t lo, size_t hi,
                            std::vector<double>& scores,
                            util::Status* termination) {
  const size_t num_events = instance.num_events();
  uint64_t evaluations = 0;
  size_t lanes[kWidth];  // the next block's intervals, lane by lane
  // Deliberate boundary polls: one deadline/cancellation check (a clock
  // read) per warm-started row or per block, amortized over up to
  // kWidth·|E| gain evaluations.
  for (size_t t = lo; t < hi;) {
    size_t width = 0;
    for (; t < hi && width < kWidth; ++t) {
      if (!WarmStarted(model, t)) {
        lanes[width++] = t;
        continue;
      }
      if (context.CheckStop(termination)) return evaluations;  // ses-lint: allow(hot-path) boundary poll, once per |E|-cell row
      double* SES_RESTRICT row = scores.data() + t * num_events;
      for (EventIndex e = 0; e < num_events; ++e) {
        const EventIndex rep = representative[e];
        if (rep == kInvalidIndex) continue;  // warm-started
        if (rep != e) {
          row[e] = row[rep];
          continue;
        }
        row[e] = model->MarginalGain(e, static_cast<IntervalIndex>(t));
        ++evaluations;
      }
    }
    if (width == 0) break;
    if (context.CheckStop(termination)) return evaluations;  // ses-lint: allow(hot-path) boundary poll, once per block of |E|-cell rows
    LoadBlock(instance, lanes, width, block);
    // Shards own disjoint intervals, so nothing else aliases the rows
    // of the block's intervals while we fill them.
    double* SES_RESTRICT cells = scores.data();
    double gains[kWidth] = {};
    for (EventIndex e = 0; e < num_events; ++e) {
      const EventIndex rep = representative[e];
      if (rep == kInvalidIndex) continue;  // warm-started
      if (rep != e) {
        for (size_t lane = 0; lane < width; ++lane) {
          cells[lanes[lane] * num_events + e] =
              cells[lanes[lane] * num_events + rep];
        }
        continue;
      }
      auto users = instance.EventUsers(e);
      auto values = instance.EventValues(e);
      kernels::LuceGainBlock(users.data(), values.data(), users.size(),
                             block.denom.data(), block.sigma.data(), gains);
      for (size_t lane = 0; lane < width; ++lane) {
        cells[lanes[lane] * num_events + e] = gains[lane];
      }
      evaluations += width;
    }
  }
  return evaluations;
}

/// One shard: its own block, plus its own model when the warm start is
/// non-empty. A model started from the replayed, validated warm start
/// is in the exact schedule state the serial pass scores under.
uint64_t ScoreShard(const SesInstance& instance, const SolverOptions& options,
                    std::span<const EventIndex> representative,
                    const SolveContext& context, size_t lo, size_t hi,
                    std::vector<double>& scores, util::Status* termination) {
  IntervalBlock block(instance.num_users());
  std::optional<AttendanceModel> model;
  if (!options.warm_start.empty()) {
    Schedule warm(instance);
    SES_CHECK(ApplyWarmStart(warm, options.warm_start).ok())
        << "warm start must be validated before score generation";
    model.emplace(std::move(warm));
  }
  return ScoreRange(instance, representative, model ? &*model : nullptr,
                    block, context, lo, hi, scores, termination);
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
  // The unassigned events are fixed for the whole fill, so every shard
  // reads one representative table.
  const std::vector<EventIndex> representative =
      Representatives(instance, options.warm_start);

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
    // Serial reference path: one shard, no pool.
    result.gain_evaluations =
        ScoreShard(instance, options, representative, context, 0,
                   num_intervals, scores, &result.termination);
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
        // Blocks and models keep per-interval scratch and are not
        // shareable across threads, so every shard builds its own.
        util::Status termination;
        evaluations.fetch_add(
            ScoreShard(instance, options, representative, context, lo, hi,
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

std::shared_ptr<const std::vector<double>> ScoreGridCache::Get(
    const SesInstance& instance) const {
  SES_CHECK(&instance == instance_)
      << "score grid cache belongs to another instance";
  std::shared_ptr<const std::vector<double>> grid;
  {
    util::MutexLock lock(mutex_);
    grid = grid_;
  }
  if (grid != nullptr) reused_.Increment();
  return grid;
}

void ScoreGridCache::Offer(const SesInstance& instance,
                           std::shared_ptr<const std::vector<double>> grid) {
  SES_CHECK(&instance == instance_)
      << "score grid cache belongs to another instance";
  util::MutexLock lock(mutex_);
  if (grid_ == nullptr) grid_ = std::move(grid);
}

InitialScores GetInitialScores(const SesInstance& instance,
                               const SolverOptions& options,
                               const SolveContext& context) {
  // Only the empty-warm-start grid is a function of the instance alone.
  ScoreGridCache* cache =
      options.warm_start.empty() ? context.score_grid : nullptr;
  InitialScores scores;
  if (cache != nullptr) {
    scores.shared = cache->Get(instance);
    if (scores.shared != nullptr) {
      // What a fresh fill would count: one evaluation per candidate
      // profile and interval.
      const std::vector<EventIndex> representative =
          Representatives(instance, {});
      for (EventIndex e = 0; e < representative.size(); ++e) {
        if (representative[e] == e) {
          scores.generated.gain_evaluations += instance.num_intervals();
        }
      }
      return scores;
    }
  }
  scores.owned.assign(
      static_cast<size_t>(instance.num_intervals()) * instance.num_events(),
      0.0);
  scores.generated =
      GenerateAssignmentScores(instance, options, context, scores.owned);
  if (cache != nullptr && scores.generated.termination.ok()) {
    scores.shared =
        std::make_shared<const std::vector<double>>(std::move(scores.owned));
    cache->Offer(instance, scores.shared);
  }
  return scores;
}

}  // namespace ses::core
