#include "ebsn/dataset.h"

#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

namespace ses::ebsn {
namespace {

/// A tiny, consistent dataset: 2 groups, 3 users, 2 events, check-ins.
EbsnDataset MakeTinyDataset() {
  EbsnDataset ds;
  const TagId pop = ds.tags().Intern("pop");
  const TagId rock = ds.tags().Intern("rock");
  const TagId fashion = ds.tags().Intern("fashion");

  ds.groups().push_back({"g-music", {pop, rock}, {0, 1}});
  ds.groups().push_back({"g-style", {fashion}, {1, 2}});

  ds.users().resize(3);
  ds.users()[0] = {{0}, {pop, rock}};
  ds.users()[1] = {{0, 1}, {pop, rock, fashion}};
  ds.users()[2] = {{1}, {fashion}};

  ds.events().push_back({0, {pop, rock}});
  ds.events().push_back({1, {fashion}});

  ds.set_num_slots(4);
  ds.checkins().push_back({0, 1});
  ds.checkins().push_back({1, 3});
  return ds;
}

TEST(EbsnDatasetTest, TinyDatasetValidates) {
  EXPECT_TRUE(MakeTinyDataset().Validate().ok());
}

TEST(EbsnDatasetTest, UnsortedGroupTagsRejected) {
  EbsnDataset ds = MakeTinyDataset();
  ds.groups()[0].tags = {1, 0};
  EXPECT_FALSE(ds.Validate().ok());
}

TEST(EbsnDatasetTest, DuplicateUserTagsRejected) {
  EbsnDataset ds = MakeTinyDataset();
  ds.users()[0].tags = {0, 0};
  EXPECT_FALSE(ds.Validate().ok());
}

TEST(EbsnDatasetTest, OutOfRangeTagRejected) {
  EbsnDataset ds = MakeTinyDataset();
  ds.events()[0].tags = {99};
  EXPECT_FALSE(ds.Validate().ok());
}

TEST(EbsnDatasetTest, OutOfRangeOrganizerRejected) {
  EbsnDataset ds = MakeTinyDataset();
  ds.events()[0].organizer = 42;
  EXPECT_FALSE(ds.Validate().ok());
}

TEST(EbsnDatasetTest, MembershipConsistencyEnforced) {
  EbsnDataset ds = MakeTinyDataset();
  // User 2 claims membership in group 0 but group 0 has no user 2.
  ds.users()[2].groups = {0, 1};
  EXPECT_FALSE(ds.Validate().ok());
}

TEST(EbsnDatasetTest, OutOfRangeCheckinRejected) {
  EbsnDataset ds = MakeTinyDataset();
  ds.checkins().push_back({77, 0});
  EXPECT_FALSE(ds.Validate().ok());
  ds = MakeTinyDataset();
  ds.checkins().push_back({0, 99});
  EXPECT_FALSE(ds.Validate().ok());
}

class DatasetIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ses_ds_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(DatasetIoTest, SaveLoadRoundTrip) {
  EbsnDataset original = MakeTinyDataset();
  ASSERT_TRUE(original.Save(dir_.string()).ok());

  auto loaded = EbsnDataset::Load(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const EbsnDataset& ds = loaded.value();

  EXPECT_EQ(ds.tags().size(), original.tags().size());
  EXPECT_EQ(ds.tags().name(0), "pop");
  ASSERT_EQ(ds.groups().size(), original.groups().size());
  EXPECT_EQ(ds.groups()[0].name, "g-music");
  EXPECT_EQ(ds.groups()[0].tags, original.groups()[0].tags);
  EXPECT_EQ(ds.groups()[1].members, original.groups()[1].members);
  ASSERT_EQ(ds.users().size(), original.users().size());
  EXPECT_EQ(ds.users()[1].groups, original.users()[1].groups);
  EXPECT_EQ(ds.users()[1].tags, original.users()[1].tags);
  ASSERT_EQ(ds.events().size(), original.events().size());
  EXPECT_EQ(ds.events()[1].organizer, original.events()[1].organizer);
  EXPECT_EQ(ds.events()[1].tags, original.events()[1].tags);
  EXPECT_EQ(ds.num_slots(), 4u);
  ASSERT_EQ(ds.checkins().size(), 2u);
  EXPECT_EQ(ds.checkins()[1].user, 1u);
  EXPECT_EQ(ds.checkins()[1].slot, 3u);
}

TEST_F(DatasetIoTest, LoadFromMissingDirFails) {
  auto loaded = EbsnDataset::Load((dir_ / "missing").string());
  EXPECT_FALSE(loaded.ok());
}

TEST_F(DatasetIoTest, BadRowNamesFileAndLine) {
  ASSERT_TRUE(MakeTinyDataset().Save(dir_.string()).ok());
  for (const char* bad : {"0,1 x,0\n", "0,0\n", "0,-1,0\n"}) {
    std::ofstream(dir_ / "events.csv")
        << "event_id,organizer,tags\n\n" << bad;
    auto loaded = EbsnDataset::Load(dir_.string());
    ASSERT_FALSE(loaded.ok()) << bad;
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kParseError) << bad;
    EXPECT_NE(loaded.status().message().find("events.csv:3: "),
              std::string::npos)
        << loaded.status().ToString();
  }
}

}  // namespace
}  // namespace ses::ebsn
