#include "ebsn/dataset_stats.h"

#include <gtest/gtest.h>

#include "ebsn/generator.h"

namespace ses::ebsn {
namespace {

TEST(DatasetStatsTest, CountsMatch) {
  SyntheticMeetupConfig config;
  config.num_users = 250;
  config.num_events = 120;
  config.num_groups = 15;
  config.num_tags = 25;
  const EbsnDataset ds = GenerateSyntheticMeetup(config);
  const DatasetStats stats = ComputeDatasetStats(ds);
  EXPECT_EQ(stats.num_users, 250u);
  EXPECT_EQ(stats.num_events, 120u);
  EXPECT_EQ(stats.num_groups, 15u);
  EXPECT_EQ(stats.num_tags, 25u);
  EXPECT_EQ(stats.num_checkins, ds.checkins().size());
}

TEST(DatasetStatsTest, DistributionsAreConsistent) {
  SyntheticMeetupConfig config;
  config.num_users = 250;
  config.num_events = 120;
  config.num_groups = 15;
  config.num_tags = 25;
  const EbsnDataset ds = GenerateSyntheticMeetup(config);
  const DatasetStats stats = ComputeDatasetStats(ds);

  // Sum of group sizes equals sum of per-user group memberships.
  double membership_total = 0;
  for (const UserProfile& user : ds.users()) {
    membership_total += static_cast<double>(user.groups.size());
  }
  EXPECT_NEAR(stats.group_size.mean * static_cast<double>(stats.num_groups),
              membership_total, 1e-6);

  EXPECT_GE(stats.tags_per_user.min, 1.0);
  EXPECT_GE(stats.groups_per_user.min, 1.0);
  EXPECT_LE(stats.tags_per_event.max,
            static_cast<double>(stats.num_tags));
}

TEST(DatasetStatsTest, EmptyDataset) {
  EbsnDataset ds;
  const DatasetStats stats = ComputeDatasetStats(ds);
  EXPECT_EQ(stats.num_users, 0u);
  EXPECT_EQ(stats.group_size.count, 0u);
  EXPECT_FALSE(stats.ToString().empty());
}

}  // namespace
}  // namespace ses::ebsn
