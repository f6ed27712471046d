#include "ebsn/interest.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ebsn/generator.h"

namespace ses::ebsn {
namespace {

/// The oracle: the Jaccard similarity of one user's tags and
/// \p event_tags by a merge of the two sorted lists.
float UserEventJaccard(const EbsnDataset& ds, EbsnUserId user,
                       const std::vector<TagId>& event_tags) {
  const auto& user_tags = ds.users()[user].tags;
  size_t overlap = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < user_tags.size() && j < event_tags.size()) {
    if (user_tags[i] == event_tags[j]) {
      ++overlap;
      ++i;
      ++j;
    } else if (user_tags[i] < event_tags[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  const size_t union_size = user_tags.size() + event_tags.size() - overlap;
  if (union_size == 0) return 0.0f;
  return static_cast<float>(overlap) / static_cast<float>(union_size);
}

/// Users carrying \p tag, in id order.
std::vector<EbsnUserId> UsersWithTag(const EbsnDataset& ds, TagId tag) {
  std::vector<EbsnUserId> users;
  for (EbsnUserId u = 0; u < ds.users().size(); ++u) {
    const auto& tags = ds.users()[u].tags;
    if (std::binary_search(tags.begin(), tags.end(), tag)) users.push_back(u);
  }
  return users;
}

/// Every user's entry in \p sparse bit-equals the oracle, and every
/// user absent from it has oracle interest below \p min_interest or 0.
void ExpectMatchesOracle(const EbsnDataset& ds,
                         const std::vector<TagId>& tags, float min_interest,
                         const std::vector<UserInterest>& sparse) {
  size_t cursor = 0;
  for (EbsnUserId u = 0; u < ds.users().size(); ++u) {
    const float reference = UserEventJaccard(ds, u, tags);
    if (cursor < sparse.size() && sparse[cursor].user == u) {
      EXPECT_EQ(std::bit_cast<uint32_t>(sparse[cursor].interest),
                std::bit_cast<uint32_t>(reference))
          << "user " << u;
      ++cursor;
    } else {
      EXPECT_TRUE(reference == 0.0f || reference < min_interest)
          << "user " << u;
    }
  }
  EXPECT_EQ(cursor, sparse.size());
}

/// 3 users with known tag sets against hand-checkable events.
EbsnDataset MakeHandDataset() {
  EbsnDataset ds;
  for (int t = 0; t < 6; ++t) {
    ds.tags().Intern("t" + std::to_string(t));
  }
  ds.groups().push_back({"g0", {0, 1, 2, 3, 4, 5}, {0, 1, 2}});
  ds.users().resize(3);
  ds.users()[0] = {{0}, {0, 1}};        // tags {0,1}
  ds.users()[1] = {{0}, {0, 1, 2, 3}};  // tags {0,1,2,3}
  ds.users()[2] = {{0}, {4, 5}};        // tags {4,5}
  ds.events().push_back({0, {0, 1}});   // event tags {0,1}
  return ds;
}

TEST(InterestModelTest, JaccardMatchesHandComputation) {
  const EbsnDataset ds = MakeHandDataset();
  const std::vector<TagId> event_tags{0, 1};
  // user0: |{0,1} ∩ {0,1}| / |{0,1}| = 2/2 = 1.
  EXPECT_FLOAT_EQ(UserEventJaccard(ds, 0, event_tags), 1.0f);
  // user1: 2 / 4 = 0.5.
  EXPECT_FLOAT_EQ(UserEventJaccard(ds, 1, event_tags), 0.5f);
  // user2: 0 / 4 = 0.
  EXPECT_FLOAT_EQ(UserEventJaccard(ds, 2, event_tags), 0.0f);
}

TEST(InterestModelTest, EventInterestsContainsExactlyOverlappingUsers) {
  const EbsnDataset ds = MakeHandDataset();
  InterestModel model(ds);
  const auto interests = model.EventInterests({0, 1}, 0.0f);
  ASSERT_EQ(interests.size(), 2u);
  EXPECT_EQ(interests[0].user, 0u);
  EXPECT_FLOAT_EQ(interests[0].interest, 1.0f);
  EXPECT_EQ(interests[1].user, 1u);
  EXPECT_FLOAT_EQ(interests[1].interest, 0.5f);
}

TEST(InterestModelTest, MinInterestFilters) {
  const EbsnDataset ds = MakeHandDataset();
  InterestModel model(ds);
  const auto interests = model.EventInterests({0, 1}, 0.6f);
  ASSERT_EQ(interests.size(), 1u);
  EXPECT_EQ(interests[0].user, 0u);
}

TEST(InterestModelTest, ScratchResetsBetweenCalls) {
  const EbsnDataset ds = MakeHandDataset();
  InterestModel model(ds);
  const auto first = model.EventInterests({0, 1}, 0.0f);
  const auto second = model.EventInterests({0, 1}, 0.0f);
  EXPECT_EQ(first, second);
}

// A one-tag event reaches exactly the users its index entry lists.
TEST(InterestModelTest, UsersWithTagIndex) {
  const EbsnDataset ds = MakeHandDataset();
  InterestModel model(ds);
  EXPECT_EQ(UsersWithTag(ds, 0), (std::vector<EbsnUserId>{0, 1}));
  EXPECT_EQ(UsersWithTag(ds, 4), (std::vector<EbsnUserId>{2}));
  for (TagId tag : {TagId{0}, TagId{4}}) {
    std::vector<EbsnUserId> reached;
    for (const UserInterest& ui : model.EventInterests({tag}, 0.0f)) {
      reached.push_back(ui.user);
    }
    EXPECT_EQ(reached, UsersWithTag(ds, tag)) << "tag " << tag;
  }
}

TEST(InterestModelTest, InvertedIndexAgreesWithReferenceOnSynthetic) {
  SyntheticMeetupConfig config;
  config.num_users = 300;
  config.num_events = 50;
  config.num_groups = 25;
  config.num_tags = 40;
  config.seed = 5;
  const EbsnDataset ds = GenerateSyntheticMeetup(config);
  InterestModel model(ds);

  // Both sides divide the same small integers in float, so they agree
  // bit for bit.
  for (size_t e = 0; e < 10; ++e) {
    SCOPED_TRACE(e);
    const auto& tags = ds.events()[e].tags;
    ExpectMatchesOracle(ds, tags, 0.0f, model.EventInterests(tags, 0.0f));
  }
}

// The per-thread counts grow to the largest |U| a thread has seen and
// are shared by every model it queries. A model over fewer users must
// read only its own users, and every call must leave the counts zero,
// or the next query on this thread would start from stale overlaps.
TEST(InterestModelTest, SharedCountsStayZeroAcrossDatasetSizes) {
  SyntheticMeetupConfig config;
  config.num_users = 500;
  config.num_events = 40;
  config.num_groups = 20;
  config.num_tags = 30;
  config.seed = 8;
  const EbsnDataset large = GenerateSyntheticMeetup(config);
  config.num_users = 60;
  config.num_events = 30;
  config.num_groups = 8;
  config.num_tags = 20;
  config.seed = 9;
  const EbsnDataset small = GenerateSyntheticMeetup(config);
  const InterestModel large_model(large);
  const InterestModel small_model(small);

  std::thread worker([&] {
    for (int round = 0; round < 2; ++round) {
      SCOPED_TRACE(round);
      for (const EbsnDataset* ds : {&large, &small}) {
        const InterestModel& model = ds == &large ? large_model : small_model;
        for (size_t e = 0; e < 10; ++e) {
          const auto& tags = ds->events()[e].tags;
          const auto sparse = model.EventInterests(tags, 0.05f);
          for (const UserInterest& ui : sparse) {
            ASSERT_LT(ui.user, ds->users().size());
          }
          ExpectMatchesOracle(*ds, tags, 0.05f, sparse);
        }
      }
    }
  });
  worker.join();
}

// EventInterests is const-thread-safe (per-thread scatter scratch): many
// threads hammering one shared model must each reproduce the serial
// answer — which itself agrees with the UserEventJaccard oracle (the
// InvertedIndexAgreesWithReferenceOnSynthetic test above pins that leg).
TEST(InterestModelTest, ConcurrentEventInterestsMatchSerial) {
  SyntheticMeetupConfig config;
  config.num_users = 400;
  config.num_events = 60;
  config.num_groups = 30;
  config.num_tags = 50;
  config.seed = 11;
  const EbsnDataset ds = GenerateSyntheticMeetup(config);
  const InterestModel model(ds);

  std::vector<std::vector<UserInterest>> expected;
  expected.reserve(ds.events().size());
  for (const auto& event : ds.events()) {
    expected.push_back(model.EventInterests(event.tags, 0.05f));
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 5;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([w, &ds, &model, &expected, &mismatches] {
      for (int round = 0; round < kRounds; ++round) {
        // Stagger the start so threads sweep different events at once.
        for (size_t i = 0; i < ds.events().size(); ++i) {
          const size_t e = (i + static_cast<size_t>(w) * 7) %
                           ds.events().size();
          if (model.EventInterests(ds.events()[e].tags, 0.05f) !=
              expected[e]) {
            ++mismatches[w];
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int w = 0; w < kThreads; ++w) {
    EXPECT_EQ(mismatches[w], 0) << "thread " << w;
  }
}

TEST(InterestModelTest, ResultsSortedByUser) {
  SyntheticMeetupConfig config;
  config.num_users = 200;
  config.num_events = 20;
  config.num_groups = 10;
  config.num_tags = 30;
  const EbsnDataset ds = GenerateSyntheticMeetup(config);
  InterestModel model(ds);
  for (size_t e = 0; e < ds.events().size(); ++e) {
    const auto sparse = model.EventInterests(ds.events()[e].tags, 0.0f);
    for (size_t i = 1; i < sparse.size(); ++i) {
      EXPECT_LT(sparse[i - 1].user, sparse[i].user);
    }
  }
}

}  // namespace
}  // namespace ses::ebsn
