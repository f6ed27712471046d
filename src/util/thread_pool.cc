#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "util/logging.h"
#include "util/mutex.h"

namespace ses::util {

namespace {

/// State of one ParallelForShards call, shared between the caller and its
/// helper tasks. Shards are claimed through an atomic cursor rather than
/// pre-assigned to tasks, so progress never depends on any helper being
/// scheduled: whoever shows up first (usually the caller) takes the next
/// shard. Completion is a per-call latch counting *shards*, not helper
/// tasks — a helper dequeued after the shards ran out exits without
/// touching fn, which is what makes the call safe to issue from inside a
/// pool worker and independent of unrelated Submit() traffic.
struct ParallelForCall {
  /// The partition parameters are written once, before the first helper
  /// is submitted (Submit's lock publishes them), and read-only after —
  /// deliberately unguarded.
  std::function<void(size_t, size_t)> fn;
  size_t begin = 0;
  size_t shards = 0;
  size_t base = 0;   ///< items in every shard
  size_t extra = 0;  ///< first `extra` shards carry one item more

  std::atomic<size_t> next_shard{0};
  Mutex mutex;
  CondVar done;
  size_t completed SES_GUARDED_BY(mutex) = 0;

  /// Claims and executes one shard; false when none are left.
  bool RunOneShard() {
    const size_t s = next_shard.fetch_add(1, std::memory_order_relaxed);
    if (s >= shards) return false;
    // Balanced partition: sizes differ by at most one, shard s starts
    // after s full shards plus one extra item for each oversized
    // predecessor.
    const size_t lo = begin + s * base + std::min(s, extra);
    const size_t hi = lo + base + (s < extra ? 1 : 0);
    fn(lo, hi);
    {
      MutexLock lock(mutex);
      if (++completed == shards) done.NotifyAll();
    }
    return true;
  }

  /// Blocks until every shard has finished executing.
  void WaitShards() SES_EXCLUDES(mutex) {
    mutex.Lock();
    while (completed != shards) done.Wait(mutex);
    mutex.Unlock();
  }
};

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  Wait();
  {
    MutexLock lock(mutex_);
    shutting_down_ = true;
  }
  task_available_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mutex_);
    SES_CHECK(!shutting_down_) << "Submit after shutdown";
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_available_.NotifyOne();
}

void ThreadPool::Wait() {
  mutex_.Lock();
  while (in_flight_ != 0) all_done_.Wait(mutex_);
  mutex_.Unlock();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      mutex_.Lock();
      while (!shutting_down_ && tasks_.empty()) task_available_.Wait(mutex_);
      if (tasks_.empty()) {  // shutting down
        mutex_.Unlock();
        return;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
      mutex_.Unlock();
    }
    task();
    {
      MutexLock lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.NotifyAll();
    }
  }
}

void ThreadPool::ParallelForShards(
    size_t begin, size_t end, size_t max_shards,
    const std::function<void(size_t, size_t)>& fn) {
  if (begin >= end) return;
  const size_t total = end - begin;
  // One lane per worker plus the calling thread; the caller always
  // participates, so a pool whose workers are busy (or a call made from
  // the last free worker) still makes progress.
  size_t lanes = num_threads() + 1;
  if (max_shards > 0) lanes = std::min(lanes, max_shards);
  const size_t shards = std::min(total, lanes);
  if (shards <= 1) {
    fn(begin, end);
    return;
  }

  auto call = std::make_shared<ParallelForCall>();
  call->fn = fn;
  call->begin = begin;
  call->shards = shards;
  call->base = total / shards;
  call->extra = total % shards;

  // Helpers for the other lanes. Each holds the call state alive; one
  // that runs after the caller already finished every shard is a no-op.
  for (size_t h = 1; h < shards; ++h) {
    Submit([call] {
      while (call->RunOneShard()) {
      }
    });
  }
  while (call->RunOneShard()) {
  }
  // Only shards already claimed by helpers can still be running; they
  // finish without any further scheduling, so this cannot deadlock.
  call->WaitShards();
}

}  // namespace ses::util
