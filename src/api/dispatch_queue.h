#ifndef SES_API_DISPATCH_QUEUE_H_
#define SES_API_DISPATCH_QUEUE_H_

/// \file
/// Priority-aware, admission-controlled, deadline-aware dispatch queue
/// feeding a util::ThreadPool.
///
/// util::ThreadPool deliberately stays a plain FIFO executor — its
/// ParallelForShards re-entrancy contract is easiest to reason about
/// that way — so request ordering lives one layer up, here. Each
/// admitted job is parked in one of three priority lanes and a generic
/// "run the best queued job" task is pushed to the pool; when a worker
/// picks that task up it drains whichever job is most urgent *at that
/// moment*, so a High-priority request admitted behind a wall of Batch
/// work still runs as soon as any worker frees up. Within a lane jobs
/// run in admission (FIFO) order.
///
/// Admission control is a fail-fast bound on the number of admitted but
/// not-yet-started jobs: TryDispatch refuses (returns false, runs
/// nothing) once `max_queued` jobs are waiting, instead of letting a
/// burst queue unbounded work. The caller turns a refusal into a typed
/// kResourceExhausted response; nothing here blocks or aborts.
///
/// Deadline awareness: a job may carry a core::Deadline plus an
/// `expire` handler. When a worker dequeues a job whose deadline has
/// already passed, it runs the (cheap) `expire` handler instead of the
/// job — a dead request is answered without ever occupying a worker for
/// solver time, so it cannot delay live requests behind it.

#include <array>
#include <cstddef>
#include <deque>
#include <functional>

#include "core/solve_context.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace ses::api {

/// Urgency of one request. Lower enum value drains first; ties drain in
/// admission order.
enum class Priority {
  kHigh = 0,    ///< latency-sensitive, overtakes everything queued
  kNormal = 1,  ///< default
  kBatch = 2,   ///< throughput work, yields to everything else
};

/// Number of priority lanes (the Priority enum's cardinality).
inline constexpr size_t kNumPriorityLanes = 3;

/// Stable lowercase name ("high", "normal", "batch") for logs and flags.
const char* PriorityToString(Priority priority);

/// One unit of work for the queue: the job body plus optional deadline
/// handling.
struct DispatchJob {
  /// The job body; runs on a pool worker when this entry is the most
  /// urgent queued one.
  std::function<void()> run;

  /// Wall-clock deadline; default never expires (the job always runs).
  core::Deadline deadline;

  /// Runs *instead of* `run` when the deadline has already expired at
  /// dequeue time. Must be cheap — it executes on a worker and
  /// typically just resolves the caller's future with
  /// kDeadlineExceeded. When null, an expired job runs normally
  /// (pre-deadline-awareness behavior).
  std::function<void()> expire;
};

/// Optional observability hooks for a DispatchQueue, all nullable;
/// pointees must outlive the queue. Updated under the queue's own
/// lock-fenced transitions, so gauge values always agree with queued().
struct DispatchQueueMetrics {
  /// Per-lane admitted-but-not-started depth, indexed by Priority.
  std::array<util::Gauge*, kNumPriorityLanes> lane_depth{};
  /// Jobs whose deadline expired while queued (dropped at dequeue);
  /// their `expire` handler ran instead of the job body.
  util::Counter* deadline_expired_in_queue = nullptr;
};

/// Bounded three-lane priority queue in front of a util::ThreadPool.
/// Thread-safe; one instance is meant to be shared by many submitters.
class DispatchQueue {
 public:
  /// \param max_queued admitted-but-not-started bound; 0 = unbounded.
  explicit DispatchQueue(size_t max_queued = 0,
                         DispatchQueueMetrics metrics = {})
      : max_queued_(max_queued), metrics_(metrics) {}

  DispatchQueue(const DispatchQueue&) = delete;
  DispatchQueue& operator=(const DispatchQueue&) = delete;

  /// Admits \p job at \p priority and schedules it on \p pool, unless
  /// the queue is full — then returns false without enqueuing anything
  /// and, when \p depth_at_refusal is non-null, stores the queue depth
  /// observed under the admission lock (a re-read after returning could
  /// contradict the refusal once workers drain concurrently). An
  /// admitted job runs (or, expired, has its `expire` handler run)
  /// exactly once, after every queued job with a more urgent lane (and
  /// every earlier job in its own lane) has been picked up.
  ///
  /// The queue must outlive every pool task it schedules; destroy (or
  /// drain) the pool before destroying the queue.
  bool TryDispatch(util::ThreadPool& pool, Priority priority,
                   DispatchJob job, size_t* depth_at_refusal = nullptr)
      SES_EXCLUDES(mutex_);

  /// Jobs admitted and still waiting for a worker. Per-lane depth is
  /// published through DispatchQueueMetrics::lane_depth gauges.
  size_t queued() const SES_EXCLUDES(mutex_);

  /// The admission bound; 0 = unbounded.
  size_t max_queued() const { return max_queued_; }

 private:
  /// Pops and runs the most urgent queued job (pool-task body). Each
  /// admitted job submits one such task, so the lanes are never empty
  /// here.
  void RunNext() SES_EXCLUDES(mutex_);

  /// Pops the most urgent queued entry into \p job (priority lane
  /// order, FIFO within a lane), maintaining depth accounting; false
  /// when every lane is empty. Callers hold the admission lock.
  bool PopMostUrgent(DispatchJob* job) SES_REQUIRES(mutex_);

  const size_t max_queued_;
  const DispatchQueueMetrics metrics_;
  mutable util::Mutex mutex_;
  /// One FIFO lane per Priority value, indexed by the enum.
  std::array<std::deque<DispatchJob>, kNumPriorityLanes> lanes_
      SES_GUARDED_BY(mutex_);
  size_t queued_ SES_GUARDED_BY(mutex_) = 0;
};

}  // namespace ses::api

#endif  // SES_API_DISPATCH_QUEUE_H_
