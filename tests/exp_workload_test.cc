#include "exp/workload.h"

#include <unistd.h>

#include <filesystem>
#include <limits>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "ebsn/generator.h"

namespace ses::exp {
namespace {

/// A scaled-down Meetup-like dataset shared by all workload tests.
const ebsn::EbsnDataset& TestDataset() {
  static const ebsn::EbsnDataset* dataset = [] {
    ebsn::SyntheticMeetupConfig config;
    config.num_users = 800;
    config.num_events = 400;
    config.num_groups = 60;
    config.num_tags = 80;
    config.seed = 424;
    return new ebsn::EbsnDataset(ebsn::GenerateSyntheticMeetup(config));
  }();
  return *dataset;
}

TEST(PaperWorkloadConfigTest, DefaultsFollowThePaper) {
  PaperWorkloadConfig config;
  EXPECT_EQ(config.k, 100);
  EXPECT_EQ(config.ResolvedIntervals(), 150);  // 3k/2
  EXPECT_EQ(config.ResolvedEvents(), 200);     // 2k
  EXPECT_DOUBLE_EQ(config.competing_mean, 8.1);
  EXPECT_EQ(config.num_locations, 25);
  EXPECT_DOUBLE_EQ(config.theta, 20.0);
  EXPECT_DOUBLE_EQ(config.xi_max, 20.0 / 3.0);
}

TEST(PaperWorkloadConfigTest, ExplicitOverridesWin) {
  PaperWorkloadConfig config;
  config.k = 50;
  config.num_intervals = 10;
  config.num_candidate_events = 60;
  EXPECT_EQ(config.ResolvedIntervals(), 10);
  EXPECT_EQ(config.ResolvedEvents(), 60);
}

PaperWorkloadConfig SmallConfig() {
  PaperWorkloadConfig config;
  config.k = 20;
  config.competing_mean = 3.0;
  config.competing_spread = 2.0;
  config.seed = 11;
  return config;
}

TEST(WorkloadFactoryTest, BuildsInstanceWithPaperShape) {
  WorkloadFactory factory(TestDataset());
  const PaperWorkloadConfig config = SmallConfig();
  auto instance = factory.Build(config);
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();

  EXPECT_EQ(instance->num_users(), 800u);
  EXPECT_EQ(instance->num_events(), 40u);     // 2k
  EXPECT_EQ(instance->num_intervals(), 30u);  // 3k/2
  EXPECT_DOUBLE_EQ(instance->theta(), 20.0);

  // Locations within [0, 25); xi within [1, 20/3].
  for (core::EventIndex e = 0; e < instance->num_events(); ++e) {
    EXPECT_LT(instance->event(e).location, 25u);
    EXPECT_GE(instance->event(e).required_resources, 1.0);
    EXPECT_LE(instance->event(e).required_resources, 20.0 / 3.0);
  }
}

// build-instance saves what Build makes with WorkloadSigma's spec;
// SaveInstance checks that the two agree.
TEST(WorkloadFactoryTest, WorkloadSigmaDescribesBuiltSigma) {
  WorkloadFactory factory(TestDataset());
  const PaperWorkloadConfig config = SmallConfig();
  auto instance = factory.Build(config);
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();
  const auto dir = std::filesystem::temp_directory_path() /
                   ("ses_workload_sigma_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  EXPECT_TRUE(
      core::SaveInstance(*instance, WorkloadSigma(config.seed), dir.string())
          .ok());
  EXPECT_EQ(core::SaveInstance(*instance, WorkloadSigma(config.seed + 1),
                               dir.string())
                .code(),
            util::StatusCode::kInvalidArgument);
  std::filesystem::remove_all(dir);
}

TEST(WorkloadFactoryTest, CompetingCountsNearConfiguredMean) {
  WorkloadFactory factory(TestDataset());
  PaperWorkloadConfig config = SmallConfig();
  config.k = 40;  // more intervals -> tighter mean estimate
  auto instance = factory.Build(config);
  ASSERT_TRUE(instance.ok());

  double total = 0.0;
  for (core::IntervalIndex t = 0; t < instance->num_intervals(); ++t) {
    const size_t count = instance->CompetingAt(t).size();
    EXPECT_LE(count, 6u);  // mean 3 + spread 2 rounds to at most 5 (+1)
    total += static_cast<double>(count);
  }
  const double mean = total / instance->num_intervals();
  EXPECT_NEAR(mean, 3.0, 1.0);
}

// The endpoint-bias regression pin: the per-interval competing count is
// a uniform *integer* on the closed range [round(mean-spread),
// round(mean+spread)]. The old draw (llround of a uniform real) gave
// the two endpoints half the interior probability, dragging the
// empirical mean off the configured center. With the paper defaults
// (8.1 ± 3.9) the range is [4, 12]: every value incl. both endpoints
// must occur, nothing outside it, and the mean must sit near 8.
TEST(WorkloadFactoryTest, CompetingCountsUniformOnClosedRange) {
  WorkloadFactory factory(TestDataset());
  PaperWorkloadConfig config;          // paper defaults: 8.1 ± 3.9
  config.k = 100;                      // 150 intervals
  config.num_candidate_events = 120;   // keep the build small
  config.seed = 7;
  auto instance = factory.Build(config);
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();

  std::map<size_t, size_t> frequency;
  double total = 0.0;
  for (core::IntervalIndex t = 0; t < instance->num_intervals(); ++t) {
    const size_t count = instance->CompetingAt(t).size();
    EXPECT_GE(count, 4u);
    EXPECT_LE(count, 12u);
    ++frequency[count];
    total += static_cast<double>(count);
  }
  // 150 draws over 9 values: each endpoint is expected ~16-17 times;
  // zero occurrences would flag the old half-weight endpoints (or an
  // accidental half-open range).
  EXPECT_GT(frequency[4], 0u);
  EXPECT_GT(frequency[12], 0u);
  const double mean = total / instance->num_intervals();
  // Uniform on [4,12] has mean 8 and stddev ~2.58; over 150 draws the
  // standard error is ~0.21, so +/-0.8 is a ~4-sigma band.
  EXPECT_NEAR(mean, 8.0, 0.8);
}

TEST(WorkloadFactoryTest, DeterministicPerSeed) {
  WorkloadFactory factory(TestDataset());
  const PaperWorkloadConfig config = SmallConfig();
  auto a = factory.Build(config);
  auto b = factory.Build(config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->num_events(), b->num_events());
  for (core::EventIndex e = 0; e < a->num_events(); ++e) {
    EXPECT_EQ(a->event(e).location, b->event(e).location);
    EXPECT_DOUBLE_EQ(a->event(e).required_resources,
                     b->event(e).required_resources);
    ASSERT_EQ(a->EventUsers(e).size(), b->EventUsers(e).size());
  }
  EXPECT_EQ(a->num_competing(), b->num_competing());
}

TEST(WorkloadFactoryTest, InterestsRespectThreshold) {
  WorkloadFactory factory(TestDataset());
  PaperWorkloadConfig config = SmallConfig();
  config.min_interest = 0.10;
  auto instance = factory.Build(config);
  ASSERT_TRUE(instance.ok());
  for (core::EventIndex e = 0; e < instance->num_events(); ++e) {
    for (float v : instance->EventValues(e)) {
      EXPECT_GE(v, 0.10f);
      EXPECT_LE(v, 1.0f);
    }
  }
}

TEST(WorkloadFactoryTest, UserCapBoundsRowSizes) {
  WorkloadFactory factory(TestDataset());
  PaperWorkloadConfig config = SmallConfig();
  config.min_interest = 0.0;
  config.max_users_per_event = 10;
  auto instance = factory.Build(config);
  ASSERT_TRUE(instance.ok());
  for (core::EventIndex e = 0; e < instance->num_events(); ++e) {
    EXPECT_LE(instance->EventUsers(e).size(), 10u);
  }
}

TEST(WorkloadFactoryTest, RejectsBadConfigs) {
  WorkloadFactory factory(TestDataset());
  PaperWorkloadConfig config = SmallConfig();
  config.k = 0;
  EXPECT_FALSE(factory.Build(config).ok());

  config = SmallConfig();
  config.num_candidate_events = 5;  // < k
  EXPECT_FALSE(factory.Build(config).ok());

  config = SmallConfig();
  config.num_candidate_events = 100000;  // > catalog
  EXPECT_FALSE(factory.Build(config).ok());

  // Negative competing counts used to clamp silently to a valid range.
  config = SmallConfig();
  config.competing_mean = -1.0;
  EXPECT_EQ(factory.Build(config).status().code(),
            util::StatusCode::kInvalidArgument);
  config = SmallConfig();
  config.competing_spread = -1.0;
  EXPECT_EQ(factory.Build(config).status().code(),
            util::StatusCode::kInvalidArgument);

  // Non-finite or huge competing counts used to round to LLONG_MIN and
  // clamp to an instance with no competing events.
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(), 1e300}) {
    SCOPED_TRACE(bad);
    config = SmallConfig();
    config.competing_mean = bad;
    EXPECT_EQ(factory.Build(config).status().code(),
              util::StatusCode::kInvalidArgument);
    config = SmallConfig();
    config.competing_spread = bad;
    EXPECT_EQ(factory.Build(config).status().code(),
              util::StatusCode::kInvalidArgument);
  }

  // |T| beyond uint32_t used to wrap in the instance while the competing
  // loop still ran the full 64-bit count.
  config = SmallConfig();
  config.num_intervals = (int64_t{1} << 32) + 15;
  EXPECT_EQ(factory.Build(config).status().code(),
            util::StatusCode::kInvalidArgument);
  // A k this large overflowed the 3k/2 default for |T|.
  config = SmallConfig();
  config.k = std::numeric_limits<int64_t>::max() / 2;
  EXPECT_EQ(factory.Build(config).status().code(),
            util::StatusCode::kInvalidArgument);

  // No locations aborted in Rng::NextBounded; a negative count wrapped
  // to a 64-bit bound and built an instance; more than 2^32 - 1 do not
  // fit a LocationId.
  for (int64_t bad : {int64_t{0}, int64_t{-3}, int64_t{1} << 32}) {
    SCOPED_TRACE(bad);
    config = SmallConfig();
    config.num_locations = bad;
    EXPECT_EQ(factory.Build(config).status().code(),
              util::StatusCode::kInvalidArgument);
  }
  config = SmallConfig();
  config.num_locations = 1;
  EXPECT_TRUE(factory.Build(config).ok());

  // An empty xi range aborted in Rng::UniformDouble.
  config = SmallConfig();
  config.xi_min = 5.0;
  config.xi_max = 1.0;
  EXPECT_EQ(factory.Build(config).status().code(),
            util::StatusCode::kInvalidArgument);
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(), -1.0}) {
    SCOPED_TRACE(bad);
    config = SmallConfig();
    config.xi_min = bad;
    EXPECT_EQ(factory.Build(config).status().code(),
              util::StatusCode::kInvalidArgument);
    config = SmallConfig();
    config.xi_max = bad;
    EXPECT_EQ(factory.Build(config).status().code(),
              util::StatusCode::kInvalidArgument);
  }
  // A point range is valid: every event gets that xi.
  config = SmallConfig();
  config.xi_min = 2.0;
  config.xi_max = 2.0;
  EXPECT_TRUE(factory.Build(config).ok());
}

}  // namespace
}  // namespace ses::exp
