#include "core/instance.h"

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace ses::core {
namespace {

InstanceBuilder ValidBuilder() {
  InstanceBuilder builder;
  builder.SetNumUsers(4).SetNumIntervals(2).SetTheta(10.0).SetSigma(
      std::make_shared<ConstSigma>(0.5));
  return builder;
}

TEST(InstanceBuilderTest, MinimalInstanceBuilds) {
  auto instance = ValidBuilder().Build();
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();
  EXPECT_EQ(instance->num_users(), 4u);
  EXPECT_EQ(instance->num_intervals(), 2u);
  EXPECT_EQ(instance->num_events(), 0u);
  EXPECT_EQ(instance->num_competing(), 0u);
  EXPECT_DOUBLE_EQ(instance->theta(), 10.0);
}

TEST(InstanceBuilderTest, RejectsZeroUsers) {
  InstanceBuilder builder;
  builder.SetNumIntervals(2).SetTheta(1.0).SetSigma(
      std::make_shared<ConstSigma>(0.5));
  EXPECT_FALSE(builder.Build().ok());
}

TEST(InstanceBuilderTest, RejectsZeroIntervals) {
  InstanceBuilder builder;
  builder.SetNumUsers(2).SetTheta(1.0).SetSigma(
      std::make_shared<ConstSigma>(0.5));
  EXPECT_FALSE(builder.Build().ok());
}

TEST(InstanceBuilderTest, RejectsMissingSigma) {
  InstanceBuilder builder;
  builder.SetNumUsers(2).SetNumIntervals(1).SetTheta(1.0);
  EXPECT_FALSE(builder.Build().ok());
}

TEST(InstanceBuilderTest, RejectsNegativeTheta) {
  auto builder = ValidBuilder();
  builder.SetTheta(-1.0);
  EXPECT_FALSE(builder.Build().ok());
}

TEST(InstanceBuilderTest, RejectsOutOfRangeUserInInterest) {
  auto builder = ValidBuilder();
  builder.AddEvent(0, 1.0, {{9, 0.5f}});
  EXPECT_FALSE(builder.Build().ok());
}

TEST(InstanceBuilderTest, RejectsZeroInterest) {
  auto builder = ValidBuilder();
  builder.AddEvent(0, 1.0, {{0, 0.0f}});
  EXPECT_FALSE(builder.Build().ok());
}

TEST(InstanceBuilderTest, RejectsInterestAboveOne) {
  auto builder = ValidBuilder();
  builder.AddEvent(0, 1.0, {{0, 1.5f}});
  EXPECT_FALSE(builder.Build().ok());
}

TEST(InstanceBuilderTest, RejectsUnsortedInterestRow) {
  auto builder = ValidBuilder();
  builder.AddEvent(0, 1.0, {{2, 0.5f}, {1, 0.5f}});
  EXPECT_FALSE(builder.Build().ok());
}

TEST(InstanceBuilderTest, RejectsDuplicateUserInRow) {
  auto builder = ValidBuilder();
  builder.AddEvent(0, 1.0, {{1, 0.5f}, {1, 0.7f}});
  EXPECT_FALSE(builder.Build().ok());
}

TEST(InstanceBuilderTest, RejectsNegativeResources) {
  auto builder = ValidBuilder();
  builder.AddEvent(0, -2.0, {});
  EXPECT_FALSE(builder.Build().ok());
}

TEST(InstanceBuilderTest, RejectsCompetingWithBadInterval) {
  auto builder = ValidBuilder();
  builder.AddCompetingEvent(7, {{0, 0.5f}});
  EXPECT_FALSE(builder.Build().ok());
}

TEST(InstanceTest, EventAccessorsAndInterestLookup) {
  auto builder = ValidBuilder();
  const EventIndex e0 = builder.AddEvent(3, 2.5, {{0, 0.8f}, {2, 0.3f}});
  const EventIndex e1 = builder.AddEvent(1, 1.0, {});
  auto instance = builder.Build();
  ASSERT_TRUE(instance.ok());

  EXPECT_EQ(e0, 0u);
  EXPECT_EQ(e1, 1u);
  EXPECT_EQ(instance->event(e0).location, 3u);
  EXPECT_DOUBLE_EQ(instance->event(e0).required_resources, 2.5);

  auto users = instance->EventUsers(e0);
  ASSERT_EQ(users.size(), 2u);
  EXPECT_EQ(users[0], 0u);
  EXPECT_EQ(users[1], 2u);
  EXPECT_FLOAT_EQ(instance->EventValues(e0)[0], 0.8f);

  EXPECT_FLOAT_EQ(instance->EventInterest(e0, 0), 0.8f);
  EXPECT_FLOAT_EQ(instance->EventInterest(e0, 1), 0.0f);
  EXPECT_FLOAT_EQ(instance->EventInterest(e0, 2), 0.3f);
  EXPECT_EQ(instance->EventUsers(e1).size(), 0u);
  EXPECT_EQ(instance->num_interest_entries(), 2u);
}

TEST(InstanceTest, CompetingEventsGroupedByInterval) {
  auto builder = ValidBuilder();
  builder.AddCompetingEvent(1, {{0, 0.4f}});
  builder.AddCompetingEvent(0, {{1, 0.6f}});
  builder.AddCompetingEvent(1, {{2, 0.2f}});
  auto instance = builder.Build();
  ASSERT_TRUE(instance.ok());

  EXPECT_EQ(instance->num_competing(), 3u);
  auto at0 = instance->CompetingAt(0);
  ASSERT_EQ(at0.size(), 1u);
  EXPECT_EQ(at0[0], 1u);
  auto at1 = instance->CompetingAt(1);
  ASSERT_EQ(at1.size(), 2u);
  EXPECT_EQ(at1[0], 0u);
  EXPECT_EQ(at1[1], 2u);
  EXPECT_FLOAT_EQ(instance->CompetingInterest(0, 0), 0.4f);
  EXPECT_FLOAT_EQ(instance->CompetingInterest(0, 3), 0.0f);
}

// --- Profiles: each distinct interest row is kept once ----------------------

TEST(InstanceProfileTest, TwinsShareAProfile) {
  test::RandomInstanceConfig config;
  config.num_events = 9;
  config.twins = true;
  const SesInstance instance = test::MakeRandomInstance(config);
  const uint32_t pairs = (config.num_events + 1) / 2;
  size_t entries = 0;
  size_t distinct_entries = 0;
  for (EventIndex e = 0; e < instance.num_events(); ++e) {
    entries += instance.EventUsers(e).size();
    if (e < pairs) {
      distinct_entries += instance.EventUsers(e).size();
      continue;
    }
    EXPECT_EQ(instance.EventProfile(e), instance.EventProfile(e - pairs));
    EXPECT_EQ(instance.EventUsers(e).data(),
              instance.EventUsers(e - pairs).data());
  }
  // Events 0..pairs-1 and the competing rows are all distinct.
  EXPECT_EQ(instance.num_profiles(), pairs + instance.num_competing());
  for (EventIndex e = 1; e < pairs; ++e) {
    EXPECT_NE(instance.EventProfile(e), instance.EventProfile(e - 1));
  }
  // Twin entries still count once per event.
  EXPECT_EQ(instance.num_interest_entries(), entries);
  EXPECT_GT(entries, distinct_entries);
}

TEST(InstanceProfileTest, RowsDifferingInOneUserOrOneBitAreDistinct) {
  const float mu = 0.3f;
  const float next = std::nextafter(mu, 1.0f);
  auto builder = ValidBuilder();
  builder.AddEvent(0, 1.0, {{0, 0.8f}, {2, mu}});
  builder.AddEvent(0, 1.0, {{0, 0.8f}, {3, mu}});    // one user differs
  builder.AddEvent(0, 1.0, {{0, 0.8f}, {2, next}});  // one float bit
  builder.AddEvent(0, 1.0, {{0, 0.8f}});             // one entry fewer
  builder.AddEvent(0, 1.0, {{0, 0.8f}, {2, mu}});    // a twin of event 0
  builder.AddEvent(1, 1.0, {});
  builder.AddEvent(1, 1.0, {});  // empty rows are twins too
  auto instance = builder.Build();
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();
  EXPECT_EQ(instance->num_profiles(), 5u);
  for (EventIndex e = 0; e < 4; ++e) {
    for (EventIndex f = e + 1; f < 4; ++f) {
      EXPECT_NE(instance->EventProfile(e), instance->EventProfile(f))
          << e << " vs " << f;
    }
  }
  EXPECT_EQ(instance->EventProfile(4), instance->EventProfile(0));
  EXPECT_EQ(instance->EventProfile(5), instance->EventProfile(6));
  EXPECT_EQ(instance->EventInterest(2, 2), next);
  EXPECT_EQ(instance->EventInterest(4, 2), mu);
  EXPECT_EQ(instance->num_interest_entries(), 9u);
}

TEST(InstanceProfileTest, CandidateAndCompetingRowsShareProfiles) {
  auto builder = ValidBuilder();
  builder.AddEvent(0, 1.0, {{1, 0.5f}, {3, 0.25f}});
  builder.AddCompetingEvent(1, {{0, 0.5f}});
  builder.AddCompetingEvent(0, {{1, 0.5f}, {3, 0.25f}});
  builder.AddCompetingEvent(1, {{0, 0.5f}});
  auto instance = builder.Build();
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();
  EXPECT_EQ(instance->num_profiles(), 2u);
  EXPECT_EQ(instance->CompetingProfile(1), instance->EventProfile(0));
  EXPECT_EQ(instance->CompetingProfile(0), instance->CompetingProfile(2));
  EXPECT_NE(instance->CompetingProfile(0), instance->EventProfile(0));
  EXPECT_EQ(instance->CompetingUsers(1).data(),
            instance->EventUsers(0).data());
  EXPECT_FLOAT_EQ(instance->CompetingInterest(1, 3), 0.25f);
  // Competing entries are not candidate entries.
  EXPECT_EQ(instance->num_interest_entries(), 2u);
}

TEST(InstanceProfileTest, EventsNamingOneAddedProfileAreTwins) {
  auto builder = ValidBuilder();
  const uint32_t shared = builder.AddProfile({{1, 0.5f}, {3, 0.25f}});
  const uint32_t unused = builder.AddProfile({{2, 0.5f}});
  const uint32_t other = builder.AddProfile({{0, 0.75f}});
  builder.AddEventWithProfile(0, 1.0, other);
  builder.AddEventWithProfile(1, 1.0, shared);
  builder.AddCompetingEventWithProfile(0, shared);
  builder.AddEventWithProfile(2, 1.0, shared);
  builder.AddEvent(3, 1.0, {{1, 0.5f}, {3, 0.25f}});  // same row, own id
  auto instance = builder.Build();
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();
  // Numbered in order of first use; the row no event names is dropped.
  EXPECT_NE(unused, shared);
  EXPECT_EQ(instance->num_profiles(), 2u);
  EXPECT_EQ(instance->EventProfile(0), 0u);
  EXPECT_EQ(instance->EventProfile(1), 1u);
  EXPECT_EQ(instance->EventProfile(2), 1u);
  EXPECT_EQ(instance->EventProfile(3), 1u);
  EXPECT_EQ(instance->CompetingProfile(0), 1u);
  EXPECT_FLOAT_EQ(instance->EventInterest(2, 3), 0.25f);
  EXPECT_EQ(instance->num_interest_entries(), 7u);
}

TEST(InstanceProfileTest, UnknownProfileIdFailsBuild) {
  auto event = ValidBuilder();
  event.AddProfile({{0, 0.5f}});
  event.AddEventWithProfile(0, 1.0, 1);
  EXPECT_EQ(event.Build().status().code(), util::StatusCode::kOutOfRange);

  auto competing = ValidBuilder();
  competing.AddCompetingEventWithProfile(0, 0);
  EXPECT_EQ(competing.Build().status().code(), util::StatusCode::kOutOfRange);
}

TEST(InstanceProfileTest, AddEventWithBracesIsAnEmptyRow) {
  auto builder = ValidBuilder();
  builder.AddProfile({{0, 0.5f}});
  builder.AddEvent(0, 1.0, {});
  builder.AddCompetingEvent(1, {});
  auto instance = builder.Build();
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();
  EXPECT_EQ(instance->num_profiles(), 1u);
  EXPECT_TRUE(instance->EventUsers(0).empty());
  EXPECT_EQ(instance->CompetingProfile(0), instance->EventProfile(0));
}

}  // namespace
}  // namespace ses::core
