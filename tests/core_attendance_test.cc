#include "core/attendance.h"

#include <bit>
#include <numeric>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/objective.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace ses::core {
namespace {

constexpr double kTol = 1e-9;

/// Parameterized over seeds: every property below must hold on random
/// instances of varied shape.
class AttendancePropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  SesInstance MakeInstance() const {
    test::RandomInstanceConfig config;
    config.seed = GetParam();
    config.num_users = 25 + GetParam() % 17;
    config.num_events = 6 + GetParam() % 5;
    config.num_intervals = 3 + GetParam() % 3;
    return test::MakeRandomInstance(config);
  }
};

TEST_P(AttendancePropertyTest, MarginalGainMatchesReferenceScore) {
  const SesInstance instance = MakeInstance();
  AttendanceModel model(instance);
  util::Rng rng(GetParam() * 31 + 1);

  // Check gains against the slow reference both on the empty schedule and
  // as the schedule grows.
  for (int step = 0; step < 4; ++step) {
    for (EventIndex e = 0; e < instance.num_events(); ++e) {
      if (model.schedule().IsAssigned(e)) continue;
      for (IntervalIndex t = 0; t < instance.num_intervals(); ++t) {
        const double fast = model.MarginalGain(e, t);
        const double slow =
            AssignmentScore(instance, model.schedule(), e, t);
        ASSERT_NEAR(fast, slow, 1e-6)
            << "step " << step << " event " << e << " interval " << t;
      }
    }
    // Grow the schedule by one random valid assignment.
    bool placed = false;
    for (int attempt = 0; attempt < 64 && !placed; ++attempt) {
      const EventIndex e = static_cast<EventIndex>(
          rng.NextBounded(instance.num_events()));
      const IntervalIndex t = static_cast<IntervalIndex>(
          rng.NextBounded(instance.num_intervals()));
      if (model.CanAssign(e, t)) {
        model.Apply(e, t);
        placed = true;
      }
    }
    if (!placed) break;
  }
}

TEST_P(AttendancePropertyTest, ApplyGainsSumToTotalUtility) {
  const SesInstance instance = MakeInstance();
  AttendanceModel model(instance);
  util::Rng rng(GetParam() * 17 + 3);

  double gains = 0.0;
  for (int step = 0; step < 6; ++step) {
    const EventIndex e =
        static_cast<EventIndex>(rng.NextBounded(instance.num_events()));
    const IntervalIndex t = static_cast<IntervalIndex>(
        rng.NextBounded(instance.num_intervals()));
    if (!model.CanAssign(e, t)) continue;
    gains += model.Apply(e, t);
    ASSERT_NEAR(gains, TotalUtility(instance, model.schedule()), 1e-6);
  }
  // Apply's own evaluation is bookkeeping, not a counted one.
  EXPECT_EQ(model.gain_evaluations(), 0u);
}

TEST_P(AttendancePropertyTest, GainsAreNonNegative) {
  const SesInstance instance = MakeInstance();
  AttendanceModel model(instance);
  for (EventIndex e = 0; e < instance.num_events(); ++e) {
    for (IntervalIndex t = 0; t < instance.num_intervals(); ++t) {
      ASSERT_GE(model.MarginalGain(e, t), -kTol);
    }
  }
}

TEST_P(AttendancePropertyTest, GainsShrinkAsIntervalFills) {
  const SesInstance instance = MakeInstance();
  AttendanceModel model(instance);

  // Record empty-schedule gains at interval 0, then fill interval 0 and
  // verify no gain increased (the submodularity-style property that
  // justifies GRD's update rule and lazy greedy).
  std::vector<double> before(instance.num_events());
  for (EventIndex e = 0; e < instance.num_events(); ++e) {
    before[e] = model.MarginalGain(e, 0);
  }
  EventIndex placed = kInvalidIndex;
  for (EventIndex e = 0; e < instance.num_events(); ++e) {
    if (model.CanAssign(e, 0)) {
      model.Apply(e, 0);
      placed = e;
      break;
    }
  }
  ASSERT_NE(placed, kInvalidIndex);
  for (EventIndex e = 0; e < instance.num_events(); ++e) {
    if (model.schedule().IsAssigned(e)) continue;
    ASSERT_LE(model.MarginalGain(e, 0), before[e] + 1e-9)
        << "gain increased for event " << e;
  }
}

TEST_P(AttendancePropertyTest, UnapplyRestoresTheGain) {
  const SesInstance instance = MakeInstance();
  AttendanceModel model(instance);
  util::Rng rng(GetParam() * 13 + 7);

  // Build a small schedule.
  for (int step = 0; step < 3; ++step) {
    const EventIndex e =
        static_cast<EventIndex>(rng.NextBounded(instance.num_events()));
    const IntervalIndex t = static_cast<IntervalIndex>(
        rng.NextBounded(instance.num_intervals()));
    if (model.CanAssign(e, t)) model.Apply(e, t);
  }
  const auto assignments = model.schedule().Assignments();
  if (assignments.empty()) return;

  // Apply + Unapply a new event: the pair scores its gain again.
  for (EventIndex e = 0; e < instance.num_events(); ++e) {
    if (model.schedule().IsAssigned(e)) continue;
    for (IntervalIndex t = 0; t < instance.num_intervals(); ++t) {
      if (!model.CanAssign(e, t)) continue;
      const double gain = model.Apply(e, t);
      model.Unapply(e);
      ASSERT_NEAR(model.MarginalGain(e, t), gain, 1e-12 * (1.0 + gain))
          << "event " << e << " interval " << t;
      ASSERT_EQ(model.schedule().Assignments(), assignments);
    }
  }
}

TEST_P(AttendancePropertyTest, UnapplyAcrossIntervalsRestoresGains) {
  const SesInstance instance = MakeInstance();
  AttendanceModel model(instance);
  // Assign events to different intervals, then remove them all: each
  // was alone at its interval, so its gain there comes back.
  std::vector<std::pair<Assignment, double>> placed;
  for (EventIndex e = 0;
       e < instance.num_events() && placed.size() < instance.num_intervals();
       ++e) {
    const auto t = static_cast<IntervalIndex>(placed.size());
    if (model.CanAssign(e, t)) placed.push_back({{e, t}, model.Apply(e, t)});
  }
  for (const auto& [a, gain] : placed) model.Unapply(a.event);
  EXPECT_EQ(model.schedule().size(), 0u);
  for (const auto& [a, gain] : placed) {
    EXPECT_NEAR(model.MarginalGain(a.event, a.interval), gain,
                1e-12 * (1.0 + gain))
        << "event " << a.event;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AttendancePropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

TEST(AttendanceModelTest, GainEvaluationCounter) {
  test::RandomInstanceConfig config;
  const SesInstance instance = test::MakeRandomInstance(config);
  AttendanceModel model(instance);
  EXPECT_EQ(model.gain_evaluations(), 0u);
  model.MarginalGain(0, 0);
  model.MarginalGain(1, 0);
  EXPECT_EQ(model.gain_evaluations(), 2u);
}

// The update pass scores each profile once and copies the gain to its
// twins: the row bit-equals a per-event MarginalGain sweep, and the
// evaluation count grows by the distinct profiles among the events the
// interval can still take. Intervals repeat, so a gain kept from an
// earlier pass would show up stale.
TEST(AttendanceModelTest, RescoreRowScoresEachProfileOnce) {
  // Event e + 11 repeats event e's row: 11 profiles, more than one
  // kernels::LuceGainRows group holds, so passes score full groups and
  // a remainder.
  test::RandomInstanceConfig config;
  config.num_events = 22;
  config.num_intervals = 3;
  config.num_locations = 22;
  config.theta = 40.0;
  config.twins = true;
  const SesInstance instance = test::MakeRandomInstance(config);
  AttendanceModel model(instance);
  std::vector<double> row(instance.num_events());
  std::vector<EventIndex> every_event(instance.num_events());
  std::iota(every_event.begin(), every_event.end(), 0u);
  uint64_t copied = 0;
  bool group_and_remainder = false;
  for (EventIndex placed = 0; placed < instance.num_events(); ++placed) {
    const IntervalIndex t = placed % instance.num_intervals();
    if (!model.CanAssign(placed, t)) continue;
    model.Apply(placed, t);
    std::vector<bool> seen(instance.num_profiles(), false);
    uint64_t fits = 0;
    uint64_t profiles = 0;
    for (EventIndex e = 0; e < instance.num_events(); ++e) {
      if (!model.CanAssign(e, t)) continue;
      ++fits;
      if (!seen[instance.EventProfile(e)]) ++profiles;
      seen[instance.EventProfile(e)] = true;
    }
    const uint64_t before = model.gain_evaluations();
    EXPECT_EQ(model.RescoreRow(t, row, every_event), fits)
        << "after placing " << placed;
    EXPECT_EQ(model.gain_evaluations() - before, profiles)
        << "after placing " << placed;
    copied += fits - profiles;
    group_and_remainder |= profiles > kernels::kGainRows &&
                           profiles % kernels::kGainRows != 0;
    for (EventIndex e = 0; e < instance.num_events(); ++e) {
      const double expected =
          model.CanAssign(e, t) ? model.MarginalGain(e, t) : kNoScore;
      EXPECT_EQ(std::bit_cast<uint64_t>(row[e]),
                std::bit_cast<uint64_t>(expected))
          << "after placing " << placed << ", e=" << e;
    }
  }
  EXPECT_GT(copied, 0u);
  EXPECT_TRUE(group_and_remainder);
}

// A pass over a subset of the events writes exactly their cells: the
// fresh gain where the event fits, kNoScore where it does not, and no
// other cell, read or written.
TEST(AttendanceModelTest, RescoreRowWritesOnlyTheListedCells) {
  test::RandomInstanceConfig config;
  config.num_events = 22;
  config.num_intervals = 3;
  config.num_locations = 4;
  config.theta = 6.0;
  config.twins = true;
  const SesInstance instance = test::MakeRandomInstance(config);
  AttendanceModel model(instance);
  constexpr double kUntouched = 12345.0;
  // Up to two events placed at each interval, the first that fit.
  for (IntervalIndex t = 0; t < instance.num_intervals(); ++t) {
    int placed = 0;
    for (EventIndex e = 0; e < instance.num_events() && placed < 2; ++e) {
      if (!model.CanAssign(e, t)) continue;
      model.Apply(e, t);
      ++placed;
    }
  }
  // Two of every three events, listed in reverse: some fit an interval,
  // some are placed or blocked there. Some twins are both listed, and
  // some have an unlisted twin whose cell must stay untouched.
  auto is_listed = [](EventIndex e) { return e % 3 != 0; };
  std::vector<EventIndex> listed;
  for (EventIndex e = instance.num_events(); e-- > 0;) {
    if (is_listed(e)) listed.push_back(e);
  }
  bool masked = false;
  bool copied = false;
  for (IntervalIndex t = 0; t < instance.num_intervals(); ++t) {
    std::vector<double> row(instance.num_events(), kUntouched);
    std::vector<bool> seen(instance.num_profiles(), false);
    uint64_t fits = 0;
    uint64_t profiles = 0;
    for (EventIndex e : listed) {
      if (!model.CanAssign(e, t)) continue;
      ++fits;
      if (!seen[instance.EventProfile(e)]) ++profiles;
      seen[instance.EventProfile(e)] = true;
    }
    const uint64_t before = model.gain_evaluations();
    EXPECT_EQ(model.RescoreRow(t, row, listed), fits) << "t=" << t;
    EXPECT_EQ(model.gain_evaluations() - before, profiles) << "t=" << t;
    copied |= fits > profiles;
    for (EventIndex e = 0; e < instance.num_events(); ++e) {
      double expected = kUntouched;
      if (is_listed(e)) {
        expected = model.CanAssign(e, t) ? model.MarginalGain(e, t) : kNoScore;
        masked |= expected == kNoScore;
      }
      EXPECT_EQ(std::bit_cast<uint64_t>(row[e]),
                std::bit_cast<uint64_t>(expected))
          << "t=" << t << ", e=" << e;
    }
  }
  EXPECT_TRUE(masked);
  EXPECT_TRUE(copied);
}

TEST(AttendanceModelTest, ZeroDenominatorUserContributesSigma) {
  // A user interested in exactly one event with no competition attends
  // with probability sigma regardless of mu.
  InstanceBuilder builder;
  builder.SetNumUsers(1).SetNumIntervals(1).SetTheta(10.0).SetSigma(
      std::make_shared<ConstSigma>(0.37));
  builder.AddEvent(0, 1.0, {{0, 0.123f}});
  auto instance = builder.Build();
  ASSERT_TRUE(instance.ok());
  AttendanceModel model(*instance);
  EXPECT_NEAR(model.MarginalGain(0, 0), 0.37, 1e-6);
}

}  // namespace
}  // namespace ses::core
