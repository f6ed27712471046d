/// Dynamic verification of the SES_HOT contract: the kernels that
/// tools/ses_lint.py proves allocation-free statically (hot-path rule)
/// are re-proven here at runtime with the counting allocator from
/// tests/alloc_guard.h, which this suite links in place of the global
/// allocator.
///
/// The split mirrors the lint's cold/hot boundary exactly: warm-up
/// passes (schedule mutation) run before the ScopedAllocCheck window
/// opens, and the window then covers the same call trees the SES_HOT
/// annotations root.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "core/attendance.h"
#include "core/kernels.h"
#include "core/objective.h"
#include "core/sigma.h"
#include "tests/alloc_guard.h"
#include "tests/test_util.h"

namespace ses::core {
namespace {

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
  const SesInstance instance = test::MakeMediumInstance();
  AttendanceModel model(instance);
  // This window proves the constructor's sizing covers LoadInterval
  // with zero allocations from a fresh model's first load.
  test::ScopedAllocCheck check;
  const double sink = GainSweep(instance, model);
  EXPECT_EQ(check.allocations(), 0u);
  EXPECT_TRUE(std::isfinite(sink));
}

TEST(HotPathAllocTest, CacheWarmSweepIsAllocationFree) {
  const SesInstance instance = test::MakeMediumInstance();
  AttendanceModel model(instance);
  // Two warm passes outside the window; the window's sweep then
  // reloads every interval a third time.
  double warm = GainSweep(instance, model);
  warm += GainSweep(instance, model);
  test::ScopedAllocCheck check;
  const double sink = GainSweep(instance, model);
  EXPECT_EQ(check.allocations(), 0u);
  // A reload rebuilds the scratch from the instance, so every sweep is
  // bit-identical: warm holds two of them, and (x + x) / 2 is exact in
  // IEEE arithmetic.
  EXPECT_EQ(sink, warm / 2.0);
  EXPECT_TRUE(std::isfinite(sink));
}

TEST(HotPathAllocTest, SweepOverPartialScheduleIsAllocationFree) {
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
  test::ScopedAllocCheck check;
  const double sink = GainSweep(instance, model);
  EXPECT_EQ(check.allocations(), 0u);
  EXPECT_TRUE(std::isfinite(sink));
}

TEST(HotPathAllocTest, RescoreRowIsAllocationFree) {
  const SesInstance instance = test::MakeMediumInstance();
  AttendanceModel model(instance);
  // The greedy family's update pass: Apply (cold, it grows the
  // schedule) outside the window, then the chosen interval's row
  // rescored inside it — every cell, scored or masked, written into
  // the caller's grid row.
  std::vector<double> row(instance.num_events(), 0.0);
  std::vector<EventIndex> every_event(instance.num_events());
  std::iota(every_event.begin(), every_event.end(), 0u);
  uint64_t rescored = 0;
  for (IntervalIndex t = 0; t < instance.num_intervals(); ++t) {
    const auto e = static_cast<EventIndex>(t);
    if (model.CanAssign(e, t)) model.Apply(e, t);
    test::ScopedAllocCheck check;
    rescored += model.RescoreRow(t, row, every_event);
    EXPECT_EQ(check.allocations(), 0u) << "interval " << t;
  }
  EXPECT_GT(rescored, 0u);
}

TEST(HotPathAllocTest, SigmaProviderFillsAreAllocationFree) {
  constexpr size_t kUsers = 512;
  constexpr IntervalIndex kIntervals = 16;
  const HashUniformSigma hashed(123);
  const ConstSigma constant(0.25);
  const DenseSigma dense(std::vector<std::vector<float>>(
      kIntervals, std::vector<float>(kUsers, 0.5f)));
  std::vector<float> row(kUsers);
  double sink = 0.0;
  test::ScopedAllocCheck check;
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
  test::ScopedAllocCheck check;
  for (int pass = 0; pass < 16; ++pass) {
    // LoadInterval's dense reset, competing fold and scheduled fold.
    std::fill(soa.denom.begin(), soa.denom.end(), 0.0);
    std::fill(soa.sched_mass.begin(), soa.sched_mass.end(), 0.0);
    std::fill(soa.ratio.begin(), soa.ratio.end(), 0.0);
    kernels::FillSigmaHash(42, static_cast<IntervalIndex>(pass), soa.sigma);
    kernels::AddMass(users.data(), values.data(), users.size(), 1,
                     soa.denom.data());
    kernels::TouchMass(users.data(), values.data(), users.size(), +1.0,
                       soa.denom.data(), soa.sched_mass.data(),
                       soa.ratio.data());
    sink += kernels::LuceGain(users.data(), values.data(), users.size(),
                              soa.denom.data(), soa.sched_mass.data(),
                              soa.ratio.data(), soa.sigma.data());
    kernels::TouchMass(users.data(), values.data(), users.size(), -1.0,
                       soa.denom.data(), soa.sched_mass.data(),
                       soa.ratio.data());
    // LoadBlock's fold into one lane, then the block's gain.
    kernels::AddMass(users.data(), values.data(), users.size(),
                     IntervalBlock::kWidth, block.denom.data() + 1);
    double lanes[IntervalBlock::kWidth] = {};
    kernels::LuceGainBlock(users.data(), values.data(), users.size(),
                           block.denom.data(), block.sigma.data(), lanes);
    for (const double lane : lanes) sink += lane;
  }
  EXPECT_EQ(check.allocations(), 0u);
  EXPECT_TRUE(std::isfinite(sink));
}

TEST(HotPathAllocTest, AttendanceProbabilityIsAllocationFree) {
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
  test::ScopedAllocCheck check;
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
