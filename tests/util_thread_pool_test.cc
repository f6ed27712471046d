#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <future>
#include <mutex>
#include <numeric>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace ses::util {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 64; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturns) {
  ThreadPool pool(1);
  pool.Wait();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<int> hits(1000, 0);
  pool.ParallelForShards(0, hits.size(), /*max_shards=*/0,
                         [&hits](size_t lo, size_t hi) {
                           for (size_t i = lo; i < hi; ++i) hits[i] += 1;
                         });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelForShards(5, 5, /*max_shards=*/0,
                         [&ran](size_t, size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, ParallelForSmallRangeFewerThanThreads) {
  ThreadPool pool(8);
  std::atomic<int> counter{0};
  std::atomic<int> shards{0};
  pool.ParallelForShards(0, 3, /*max_shards=*/0,
                         [&counter, &shards](size_t lo, size_t hi) {
                           counter.fetch_add(static_cast<int>(hi - lo));
                           shards.fetch_add(1);
                         });
  EXPECT_EQ(counter.load(), 3);
  EXPECT_LE(shards.load(), 3);  // never an empty shard
}

TEST(ThreadPoolTest, DefaultThreadCountPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, StressManyMoreTasksThanWorkers) {
  ThreadPool pool(3);
  constexpr int kTasks = 10000;
  std::atomic<int64_t> sum{0};
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&sum, i] { sum.fetch_add(i); });
  }
  pool.Wait();
  EXPECT_EQ(sum.load(), static_cast<int64_t>(kTasks) * (kTasks - 1) / 2);

  // The pool must be reusable after a full drain.
  std::atomic<int> second_wave{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&second_wave] { second_wave.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(second_wave.load(), 100);
}

TEST(ThreadPoolTest, ParallelForManyMoreItemsThanWorkers) {
  ThreadPool pool(2);
  std::vector<int> hits(20000, 0);
  pool.ParallelForShards(0, hits.size(), /*max_shards=*/0,
                         [&hits](size_t lo, size_t hi) {
                           for (size_t i = lo; i < hi; ++i) hits[i] += 1;
                         });
  for (int h : hits) ASSERT_EQ(h, 1);
}

TEST(ThreadPoolTest, TasksCanSubmitMoreWork) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&pool, &counter] {
    counter.fetch_add(1);
    pool.Submit([&counter] { counter.fetch_add(10); });
  });
  pool.Wait();
  EXPECT_EQ(counter.load(), 11);
}

// Regression: ParallelForShards issued from inside a pool task used to
// wait on the pool-wide in-flight count — which includes the waiting task
// itself — and deadlocked. The per-call latch plus caller participation makes
// nested calls complete even when every worker is inside one.
TEST(ThreadPoolTest, ParallelForFromInsideAPoolTaskCompletes) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int task = 0; task < 4; ++task) {
    pool.Submit([&pool, &total] {
      pool.ParallelForShards(0, 100, /*max_shards=*/0,
                             [&total](size_t lo, size_t hi) {
                               total.fetch_add(static_cast<int>(hi - lo));
                             });
    });
  }
  pool.Wait();
  EXPECT_EQ(total.load(), 400);
}

TEST(ThreadPoolTest, DeeplyNestedParallelForCompletes) {
  ThreadPool pool(3);
  std::atomic<int> leaves{0};
  pool.Submit([&pool, &leaves] {
    auto leaf = [&leaves](size_t lo, size_t hi) {
      leaves.fetch_add(static_cast<int>(hi - lo));
    };
    // Four lanes, so one shard per outer item, each fanning out again.
    pool.ParallelForShards(0, 4, /*max_shards=*/0,
                           [&pool, &leaf](size_t lo, size_t hi) {
                             for (size_t i = lo; i < hi; ++i) {
                               pool.ParallelForShards(0, 8, /*max_shards=*/0,
                                                      leaf);
                             }
                           });
  });
  pool.Wait();
  EXPECT_EQ(leaves.load(), 32);
}

// ParallelForShards must not wait on unrelated Submit() work: with the
// only worker parked on a gate, the caller runs every shard itself and
// returns while the unrelated task is still blocked.
TEST(ThreadPoolTest, ParallelForDoesNotWaitForUnrelatedTasks) {
  ThreadPool pool(1);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  pool.Submit([gate] { gate.wait(); });

  std::atomic<int> count{0};
  pool.ParallelForShards(0, 8, /*max_shards=*/0,
                         [&count](size_t lo, size_t hi) {
                           count.fetch_add(static_cast<int>(hi - lo));
                         });
  EXPECT_EQ(count.load(), 8);

  release.set_value();
  pool.Wait();
}

// Shard math: sizes differ by at most one and the shards partition the
// range exactly (the old ceil-based split could leave a tiny trailing
// shard while early shards were oversized).
TEST(ThreadPoolTest, ParallelForShardsAreBalanced) {
  ThreadPool pool(3);
  for (size_t total : {4u, 7u, 10u, 11u, 97u}) {
    std::mutex mutex;
    std::vector<std::pair<size_t, size_t>> shards;
    pool.ParallelForShards(5, 5 + total, /*max_shards=*/0,
                           [&](size_t lo, size_t hi) {
                             std::lock_guard<std::mutex> lock(mutex);
                             shards.push_back({lo, hi});
                           });
    std::sort(shards.begin(), shards.end());
    size_t covered = 0;
    size_t min_size = total;
    size_t max_size = 0;
    size_t expect_lo = 5;
    for (const auto& [lo, hi] : shards) {
      EXPECT_EQ(lo, expect_lo) << "total=" << total;
      EXPECT_GT(hi, lo);
      covered += hi - lo;
      min_size = std::min(min_size, hi - lo);
      max_size = std::max(max_size, hi - lo);
      expect_lo = hi;
    }
    EXPECT_EQ(covered, total);
    EXPECT_LE(max_size - min_size, 1u) << "total=" << total;
    EXPECT_LE(shards.size(), pool.num_threads() + 1);
  }
}

TEST(ThreadPoolTest, ParallelForShardsHonorsMaxShards) {
  ThreadPool pool(4);
  std::atomic<size_t> shard_count{0};
  std::vector<int> hits(100, 0);
  pool.ParallelForShards(0, hits.size(), /*max_shards=*/2,
                         [&](size_t lo, size_t hi) {
                           shard_count.fetch_add(1);
                           for (size_t i = lo; i < hi; ++i) hits[i] += 1;
                         });
  EXPECT_LE(shard_count.load(), 2u);
  for (int h : hits) EXPECT_EQ(h, 1);
}

}  // namespace
}  // namespace ses::util
