/// Dynamic verification of the SES_HOT contract: the kernels that
/// tools/ses_lint.py proves allocation-free statically (hot-path rule)
/// are re-proven here at runtime with the counting allocator from
/// src/util/alloc_guard.h. Build with -DSES_ALLOC_GUARD=ON (the
/// sanitizer and release-test CI jobs do); without it every test
/// GTEST_SKIPs rather than passing vacuously.
///
/// The split mirrors the lint's cold/hot boundary exactly: warm-up
/// passes (cache materialization, schedule mutation) run before the
/// ScopedAllocCheck window opens, and the window then covers the same
/// call trees the SES_HOT annotations root.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/attendance.h"
#include "core/kernels.h"
#include "core/objective.h"
#include "core/sigma.h"
#include "tests/test_util.h"
#include "util/alloc_guard.h"

namespace ses::core {
namespace {

constexpr char kSkipMessage[] =
    "build with -DSES_ALLOC_GUARD=ON to count allocations";

/// One full interval-major gain sweep over the unassigned events —
/// the per-pair model path score generation takes at warm-started
/// intervals.
double GainSweep(const SesInstance& instance, AttendanceModel& model) {
  double sink = 0.0;
  for (IntervalIndex t = 0; t < instance.num_intervals(); ++t) {
    for (EventIndex e = 0; e < instance.num_events(); ++e) {
      if (model.schedule().IsAssigned(e)) continue;
      sink += model.MarginalGain(e, t);
    }
  }
  return sink;
}

TEST(HotPathAllocTest, FirstSweepScratchPathIsAllocationFree) {
  if (!util::AllocGuardEnabled()) GTEST_SKIP() << kSkipMessage;
  const SesInstance instance = test::MakeMediumInstance();
  AttendanceModel model(instance);
  // A fresh model's first pass takes the uncached scratch path in
  // every interval (the cache materializes on the *second* load), so
  // this window proves the constructor's reserve down-payments cover
  // steady-state LoadInterval with zero allocations from load one.
  util::ScopedAllocCheck check;
  const double sink = GainSweep(instance, model);
  EXPECT_EQ(check.allocations(), 0u);
  EXPECT_TRUE(std::isfinite(sink));
}

TEST(HotPathAllocTest, CacheWarmSweepIsAllocationFree) {
  if (!util::AllocGuardEnabled()) GTEST_SKIP() << kSkipMessage;
  const SesInstance instance = test::MakeMediumInstance();
  AttendanceModel model(instance);
  // Two warm passes: pass one counts each interval's load, pass two
  // triggers the (allocating, lint-suppressed) MaterializeCache on
  // every interval. Both stay outside the window.
  double warm = GainSweep(instance, model);
  warm += GainSweep(instance, model);
  util::ScopedAllocCheck check;
  const double sink = GainSweep(instance, model);
  EXPECT_EQ(check.allocations(), 0u);
  // The cached replay must also reproduce the uncached sweeps exactly:
  // warm holds two bit-identical passes, and (x + x) / 2 is exact in
  // IEEE arithmetic (bit-identity is pinned in depth by
  // core_sigma_cache_test).
  EXPECT_EQ(sink, warm / 2.0);
  EXPECT_TRUE(std::isfinite(sink));
}

TEST(HotPathAllocTest, SweepOverPartialScheduleIsAllocationFree) {
  if (!util::AllocGuardEnabled()) GTEST_SKIP() << kSkipMessage;
  const SesInstance instance = test::MakeMediumInstance();
  AttendanceModel model(instance);
  // Mutating the schedule allocates (Schedule keeps per-interval event
  // lists) and is not SES_HOT; do it before the window so the window
  // measures gain evaluation over a non-trivial schedule — the
  // EventsAt fold in LoadInterval included.
  int applied = 0;
  for (EventIndex e = 0; e < instance.num_events() && applied < 5; ++e) {
    const IntervalIndex t = e % instance.num_intervals();
    if (model.CanAssign(e, t)) {
      model.Apply(e, t);
      ++applied;
    }
  }
  ASSERT_GT(applied, 0);
  double warm = GainSweep(instance, model);  // materialization pass 1
  warm += GainSweep(instance, model);        // materialization pass 2
  util::ScopedAllocCheck check;
  const double sink = GainSweep(instance, model);
  EXPECT_EQ(check.allocations(), 0u);
  EXPECT_TRUE(std::isfinite(sink));
}

TEST(HotPathAllocTest, SigmaProviderFillsAreAllocationFree) {
  if (!util::AllocGuardEnabled()) GTEST_SKIP() << kSkipMessage;
  constexpr size_t kUsers = 512;
  constexpr IntervalIndex kIntervals = 16;
  const HashUniformSigma hashed(123);
  const ConstSigma constant(0.25);
  const DenseSigma dense(std::vector<std::vector<float>>(
      kIntervals, std::vector<float>(kUsers, 0.5f)));
  std::vector<float> row(kUsers);
  double sink = 0.0;
  util::ScopedAllocCheck check;
  for (IntervalIndex t = 0; t < kIntervals; ++t) {
    hashed.FillInterval(t, row);
    sink += row[t];
    constant.FillInterval(t, row);
    sink += row[t];
    dense.FillInterval(t, row);
    sink += row[t];
    sink += hashed.At(0, t) + constant.At(0, t) + dense.At(0, t);
  }
  EXPECT_EQ(check.allocations(), 0u);
  EXPECT_TRUE(std::isfinite(sink));
}

TEST(HotPathAllocTest, KernelSweepIsAllocationFree) {
  if (!util::AllocGuardEnabled()) GTEST_SKIP() << kSkipMessage;
  // The SoA kernels called directly, bypassing AttendanceModel: a warm
  // sweep over pre-sized spans must be pure arithmetic — the kernels
  // take raw restrict pointers and have nothing to grow. This is the
  // runtime half of the lint's hot-path proof for the kernels::*
  // inventory entries.
  constexpr uint32_t kUsers = 512;
  IntervalSoA soa(kUsers);  // allocation happens here, outside the window
  IntervalBlock block(kUsers);
  std::fill(block.denom.begin(), block.denom.end(), 1.5);
  std::fill(block.sigma.begin(), block.sigma.end(), 0.5f);
  std::vector<UserIndex> users;
  std::vector<float> values;
  for (UserIndex u = 0; u < kUsers; u += 3) {
    users.push_back(u);
    values.push_back(0.25f + static_cast<float>(u % 7) * 0.1f);
  }
  double sink = 0.0;
  util::ScopedAllocCheck check;
  for (int pass = 0; pass < 16; ++pass) {
    kernels::ClearTouched(soa.touched.data(), soa.num_touched,
                          soa.denom.data(), soa.sched_mass.data(),
                          soa.ratio.data(), soa.in_touched.data());
    soa.num_touched = 0;
    kernels::FillSigmaHash(42, static_cast<IntervalIndex>(pass), soa.sigma);
    soa.num_touched = kernels::AccumulateMass(
        users.data(), values.data(), users.size(), soa.denom.data(),
        nullptr, nullptr, soa.touched.data(), soa.in_touched.data(),
        soa.num_touched);
    soa.num_touched = kernels::AccumulateMass(
        users.data(), values.data(), users.size(), soa.denom.data(),
        soa.sched_mass.data(), soa.ratio.data(), soa.touched.data(),
        soa.in_touched.data(), soa.num_touched);
    sink += kernels::LuceGain(users.data(), values.data(), users.size(),
                              soa.denom.data(), soa.sched_mass.data(),
                              soa.ratio.data(), soa.sigma.data());
    sink += kernels::LuceLoss(users.data(), values.data(), users.size(),
                              soa.denom.data(), soa.sched_mass.data(),
                              soa.ratio.data(), soa.sigma.data());
    soa.num_touched = kernels::TouchMass(
        users.data(), values.data(), users.size(), -1.0, soa.denom.data(),
        soa.sched_mass.data(), soa.ratio.data(), soa.touched.data(),
        soa.in_touched.data(), soa.num_touched);
    double lanes[IntervalBlock::kWidth] = {};
    kernels::LuceGainBlock(users.data(), values.data(), users.size(),
                           block.denom.data(), block.sigma.data(), lanes);
    for (const double lane : lanes) sink += lane;
  }
  EXPECT_EQ(check.allocations(), 0u);
  EXPECT_TRUE(std::isfinite(sink));
}

TEST(HotPathAllocTest, AttendanceProbabilityIsAllocationFree) {
  if (!util::AllocGuardEnabled()) GTEST_SKIP() << kSkipMessage;
  const SesInstance instance = test::MakeMediumInstance();
  AttendanceModel model(instance);
  std::vector<EventIndex> assigned;
  for (EventIndex e = 0; e < instance.num_events(); ++e) {
    const IntervalIndex t = e % instance.num_intervals();
    if (model.CanAssign(e, t)) {
      model.Apply(e, t);
      assigned.push_back(e);
    }
  }
  ASSERT_FALSE(assigned.empty());
  double sink = 0.0;
  util::ScopedAllocCheck check;
  for (EventIndex e : assigned) {
    for (UserIndex u = 0; u < instance.num_users(); ++u) {
      sink += AttendanceProbability(instance, model.schedule(), u, e);
    }
  }
  EXPECT_EQ(check.allocations(), 0u);
  EXPECT_TRUE(std::isfinite(sink));
}

}  // namespace
}  // namespace ses::core
