#include "exp/workload.h"

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <vector>

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

/// Tags {0,1,2}; users 0-2 carry {0,1} and user 3 carries {2}. The
/// catalog's tag sets {0} and {1} differ but give every {0,1} user the
/// same Jaccard of 1/2, so they give one row.
ebsn::EbsnDataset TwinRowDataset() {
  ebsn::EbsnDataset ds;
  for (int t = 0; t < 3; ++t) ds.tags().Intern("t" + std::to_string(t));
  ds.users().resize(4);
  for (ebsn::EbsnUserId u = 0; u < 3; ++u) ds.users()[u].tags = {0, 1};
  ds.users()[3].tags = {2};
  for (std::vector<ebsn::TagId> tags :
       {std::vector<ebsn::TagId>{0}, {1}, {2}, {0, 1}}) {
    ds.events().push_back({0, std::move(tags)});
  }
  return ds;
}

using Row = std::vector<std::pair<core::UserIndex, float>>;

Row ProfileRow(const core::SesInstance& instance, uint32_t p) {
  Row row;
  for (size_t i = 0; i < instance.ProfileUsers(p).size(); ++i) {
    row.push_back({instance.ProfileUsers(p)[i], instance.ProfileValues(p)[i]});
  }
  return row;
}

// Build computes one row per distinct tag set; its content interning
// still merges the two tag sets that give one row, and a tag set drawn
// for candidate and competing events alike names one profile.
TEST(WorkloadFactoryTest, DistinctTagSetsShareRowsByContent) {
  const ebsn::EbsnDataset ds = TwinRowDataset();
  WorkloadFactory factory(ds);
  PaperWorkloadConfig config;
  config.k = 2;
  config.num_candidate_events = 4;  // the whole catalog
  config.num_intervals = 3;
  config.competing_mean = 4.0;  // 12 competing draws from 4 tag sets
  config.competing_spread = 0.0;
  config.seed = 3;
  auto instance = factory.Build(config);
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();

  const Row half{{0, 0.5f}, {1, 0.5f}, {2, 0.5f}};  // tags {0} and {1}
  const Row loner{{3, 1.0f}};                       // tags {2}
  const Row full{{0, 1.0f}, {1, 1.0f}, {2, 1.0f}};  // tags {0,1}
  ASSERT_EQ(instance->num_events(), 4u);
  ASSERT_EQ(instance->num_competing(), 12u);
  EXPECT_EQ(instance->num_profiles(), 3u);

  // The candidates are the catalog in some order: rows half twice,
  // loner and full once, and the two half events share a profile.
  std::map<uint32_t, Row> by_profile;
  std::vector<Row> candidate_rows;
  uint32_t next_profile = 0;
  for (core::EventIndex e = 0; e < instance->num_events(); ++e) {
    const uint32_t p = instance->EventProfile(e);
    if (!by_profile.count(p)) {
      EXPECT_EQ(p, next_profile++) << "profiles number in order of first use";
      by_profile[p] = ProfileRow(*instance, p);
    }
    candidate_rows.push_back(by_profile[p]);
  }
  std::sort(candidate_rows.begin(), candidate_rows.end());
  std::vector<Row> expected{half, half, loner, full};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(candidate_rows, expected);
  EXPECT_EQ(by_profile.size(), 3u);

  // Every competing event repeats a candidate's tag set, so it names
  // that candidate's profile, and its row is one of the three.
  for (core::CompetingIndex c = 0; c < instance->num_competing(); ++c) {
    const uint32_t p = instance->CompetingProfile(c);
    ASSERT_TRUE(by_profile.count(p)) << "competing " << c;
    const Row row = ProfileRow(*instance, p);
    EXPECT_EQ(row, by_profile[p]);
    EXPECT_TRUE(row == half || row == loner || row == full) << "competing " << c;
  }
}

/// FNV-1a over the bytes of the files in \p dir, in name order.
uint64_t HashDirectory(const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const auto& file : files) {
    std::ifstream in(file, std::ios::binary);
    for (auto it = std::istreambuf_iterator<char>(in);
         it != std::istreambuf_iterator<char>(); ++it) {
      hash = (hash ^ static_cast<unsigned char>(*it)) * 0x100000001b3ull;
    }
  }
  return hash;
}

// The saved instance of a fixed config whose user cap cuts rows inside
// runs of equal interest, so which tied users survive the cut is part
// of the bytes. The value is what the per-event path wrote before Build
// computed one row per distinct tag set. The tie order is
// std::nth_element's, so the value holds for libstdc++.
TEST(WorkloadFactoryTest, SavedBytesPinnedWithTiesAtTheCap) {
  PaperWorkloadConfig config = SmallConfig();
  config.num_candidate_events = 400;  // the whole catalog
  config.min_interest = 0.0;
  config.max_users_per_event = 10;

  // Jaccard values are ratios of small counts, so the cap falls inside
  // a tie for most catalog events.
  const ebsn::InterestModel model(TestDataset());
  size_t tied = 0;
  for (const auto& event : TestDataset().events()) {
    std::vector<float> values;
    for (const ebsn::UserInterest& ui : model.EventInterests(event.tags, 0.0f)) {
      values.push_back(ui.interest);
    }
    if (values.size() <= 10) continue;
    std::sort(values.begin(), values.end(), std::greater<float>());
    tied += values[9] == values[10];
  }
  EXPECT_GT(tied, 100u);

  WorkloadFactory factory(TestDataset());
  auto instance = factory.Build(config);
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();
  const auto dir = std::filesystem::temp_directory_path() /
                   ("ses_workload_bytes_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(
      core::SaveInstance(*instance, WorkloadSigma(config.seed), dir.string())
          .ok());
  EXPECT_EQ(HashDirectory(dir), 0x6024c9e2f0bcf58eull);
  std::filesystem::remove_all(dir);
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
