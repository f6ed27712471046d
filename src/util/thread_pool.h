#ifndef SES_UTIL_THREAD_POOL_H_
#define SES_UTIL_THREAD_POOL_H_

/// \file
/// Fixed-size worker pool with a blocking ParallelForShards, used to
/// parallelize initial assignment-score generation and experiment sweeps
/// on multi-core machines. On a single core machine the pool degrades
/// gracefully to near-serial execution.
///
/// ParallelForShards is re-entrant: it may be called from inside a pool
/// task. Each call tracks its own shards on a per-call completion latch
/// (never the pool-wide in-flight count), and the calling thread claims
/// and executes shards alongside the workers. A call issued from a saturated
/// or fully-parked pool therefore still completes — worst case the caller
/// runs every shard itself — instead of deadlocking on helpers that can
/// never be scheduled, and it never waits on unrelated Submit() work.

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace ses::util {

/// A fixed set of worker threads consuming a FIFO task queue.
class ThreadPool {
 public:
  /// \param num_threads worker count; 0 means hardware_concurrency().
  explicit ThreadPool(size_t num_threads = 0);

  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues \p task for asynchronous execution.
  void Submit(std::function<void()> task) SES_EXCLUDES(mutex_);

  /// Blocks until every submitted task has finished.
  void Wait() SES_EXCLUDES(mutex_);

  /// Number of worker threads.
  size_t num_threads() const { return workers_.size(); }

  /// Partitions [begin, end) into at most min(num_threads() + 1,
  /// max_shards) contiguous shards whose sizes differ by at most one,
  /// runs fn(lo, hi) once per shard across the pool plus the calling
  /// thread, and blocks until all shards complete. \p max_shards == 0
  /// means one shard per available lane (workers plus the calling
  /// thread). Each shard can keep its own scratch state (e.g. one
  /// interval block per shard in score generation). Safe to call from
  /// inside a pool task (see \file).
  void ParallelForShards(size_t begin, size_t end, size_t max_shards,
                         const std::function<void(size_t, size_t)>& fn);

 private:
  void WorkerLoop() SES_EXCLUDES(mutex_);

  Mutex mutex_;
  CondVar task_available_;
  CondVar all_done_;
  std::queue<std::function<void()>> tasks_ SES_GUARDED_BY(mutex_);
  /// Written only by the constructor, before any worker can observe it;
  /// immutable afterwards, so reads (num_threads) need no lock.
  std::vector<std::thread> workers_;
  size_t in_flight_ SES_GUARDED_BY(mutex_) = 0;
  bool shutting_down_ SES_GUARDED_BY(mutex_) = false;
};

}  // namespace ses::util

#endif  // SES_UTIL_THREAD_POOL_H_
