/// Unit tests for the thread-local allocation counter
/// (tests/alloc_guard.{h,cc}), which this suite links in place of the
/// global allocator.

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "tests/alloc_guard.h"

namespace ses::test {
namespace {

TEST(AllocGuardTest, CountsHeapAllocations) {
  ScopedAllocCheck check;
  EXPECT_EQ(check.allocations(), 0u);
  auto p = std::make_unique<uint64_t>(41);
  EXPECT_EQ(*p + 1, 42u);
  // make_unique<uint64_t> is exactly one operator new.
  EXPECT_EQ(check.allocations(), 1u);
}

TEST(AllocGuardTest, NestedChecksMeasureFromTheirOwnStart) {
  ScopedAllocCheck outer;
  auto a = std::make_unique<int>(1);
  ScopedAllocCheck inner;
  auto b = std::make_unique<int>(2);
  EXPECT_EQ(*a + *b, 3);
  EXPECT_EQ(inner.allocations(), 1u);
  EXPECT_EQ(outer.allocations(), 2u);
}

TEST(AllocGuardTest, ArrayAndAlignedFormsAreCounted) {
  ScopedAllocCheck check;
  auto arr = std::make_unique<int[]>(16);  // operator new[]
  arr[0] = 1;
  struct alignas(64) Wide {
    double lanes[8];
  };
  auto wide = std::make_unique<Wide>();  // aligned operator new
  wide->lanes[0] = 1.0;
  EXPECT_EQ(check.allocations(), 2u);
}

TEST(AllocGuardTest, CounterIsThreadLocal) {
  // The worker is constructed (std::thread allocates its state) before
  // the check window opens, then released into its allocation burst by
  // the handshake — so every one of its allocations lands inside the
  // window, on the other thread.
  std::atomic<int> stage{0};
  std::atomic<uint64_t> worker_count{0};
  std::thread worker([&stage, &worker_count] {
    while (stage.load(std::memory_order_acquire) != 1) {
      std::this_thread::yield();
    }
    ScopedAllocCheck worker_check;
    // The pointers must escape the loop or the optimizer may elide the
    // paired new/delete entirely ([expr.new] allocation elision applies
    // to replaced operator new too): reserve is one allocation, then
    // exactly one per element.
    std::vector<std::unique_ptr<int>> keep;
    keep.reserve(64);
    for (int i = 0; i < 64; ++i) {
      keep.push_back(std::make_unique<int>(i));
    }
    worker_count.store(worker_check.allocations(),
                       std::memory_order_release);
    stage.store(2, std::memory_order_release);
  });
  {
    ScopedAllocCheck check;
    stage.store(1, std::memory_order_release);
    while (stage.load(std::memory_order_acquire) != 2) {
      std::this_thread::yield();
    }
    // The worker's 64 allocations must not leak into this thread's
    // window...
    EXPECT_EQ(check.allocations(), 0u);
  }
  worker.join();
  // ...and must all have been visible in the worker's own window: the
  // vector's reserve plus one make_unique per element.
  EXPECT_EQ(worker_count.load(), 65u);
}

}  // namespace
}  // namespace ses::test
