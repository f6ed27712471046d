#ifndef SES_TESTS_ALLOC_GUARD_H_
#define SES_TESTS_ALLOC_GUARD_H_

/// \file
/// Thread-local allocation counting — the dynamic half of the SES_HOT
/// contract (util/hot_annotations.h).
///
/// alloc_guard.cc replaces the global `operator new` / `operator
/// delete` family with forwarding versions that bump a thread-local
/// counter on every allocation (sanitizer-style interposition:
/// AddressSanitizer still sees the underlying malloc, so the two
/// compose). Tests wrap a hot region in a `ScopedAllocCheck` and assert
/// `allocations() == 0`; see tests/core_hot_path_alloc_test.cc for the
/// kernels this pins.
///
/// A test fixture, not library code: the root CMakeLists adds
/// alloc_guard.cc to exactly the suites that count, so no other binary
/// links a replaced global allocator. The counter is strictly
/// per-thread — allocations on other threads never leak into a check,
/// so the guard is usable under the parallel solver.

#include <cstdint>

namespace ses::test {

// Number of heap allocations this thread has performed since it
// started.
uint64_t ThreadAllocCount();

// Snapshot-on-construction window over ThreadAllocCount(). Nests
// freely: each instance measures from its own construction point.
//
//   test::ScopedAllocCheck check;
//   HotKernel();
//   EXPECT_EQ(check.allocations(), 0u);
class ScopedAllocCheck {
 public:
  ScopedAllocCheck() : start_(ThreadAllocCount()) {}

  // Allocations made by this thread since construction.
  uint64_t allocations() const { return ThreadAllocCount() - start_; }

 private:
  uint64_t start_;
};

}  // namespace ses::test

#endif  // SES_TESTS_ALLOC_GUARD_H_
