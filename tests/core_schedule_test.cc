#include "core/schedule.h"

#include <memory>

#include <gtest/gtest.h>

namespace ses::core {
namespace {

/// 4 events: e0/e1 share location 0; e2 location 1; e3 location 2 but
/// needs 8 resources. theta = 10.
SesInstance MakeInstance() {
  InstanceBuilder builder;
  builder.SetNumUsers(2).SetNumIntervals(3).SetTheta(10.0).SetSigma(
      std::make_shared<ConstSigma>(1.0));
  builder.AddEvent(/*location=*/0, /*required_resources=*/3.0, {{0, 0.5f}});
  builder.AddEvent(/*location=*/0, /*required_resources=*/3.0, {{1, 0.5f}});
  builder.AddEvent(/*location=*/1, /*required_resources=*/3.0, {});
  builder.AddEvent(/*location=*/2, /*required_resources=*/8.0, {});
  auto instance = builder.Build();
  EXPECT_TRUE(instance.ok());
  return std::move(instance).value();
}

TEST(ScheduleTest, StartsEmpty) {
  const SesInstance instance = MakeInstance();
  Schedule schedule(instance);
  EXPECT_EQ(schedule.size(), 0u);
  EXPECT_FALSE(schedule.IsAssigned(0));
  EXPECT_EQ(schedule.IntervalOf(0), kInvalidIndex);
  EXPECT_TRUE(schedule.Assignments().empty());
}

TEST(ScheduleTest, AssignAndQuery) {
  const SesInstance instance = MakeInstance();
  Schedule schedule(instance);
  ASSERT_TRUE(schedule.Assign(0, 1).ok());
  EXPECT_TRUE(schedule.IsAssigned(0));
  EXPECT_EQ(schedule.IntervalOf(0), 1u);
  EXPECT_EQ(schedule.size(), 1u);
  EXPECT_EQ(schedule.EventsAt(1), (std::vector<EventIndex>{0}));
  EXPECT_DOUBLE_EQ(schedule.UsedResources(1), 3.0);
}

TEST(ScheduleTest, DoubleAssignRejected) {
  const SesInstance instance = MakeInstance();
  Schedule schedule(instance);
  ASSERT_TRUE(schedule.Assign(0, 0).ok());
  EXPECT_FALSE(schedule.Assign(0, 1).ok());
  EXPECT_FALSE(schedule.CanAssign(0, 1));
}

TEST(ScheduleTest, LocationConflictRejected) {
  const SesInstance instance = MakeInstance();
  Schedule schedule(instance);
  ASSERT_TRUE(schedule.Assign(0, 0).ok());
  // e1 shares location 0 with e0.
  EXPECT_FALSE(schedule.CanAssign(1, 0));
  EXPECT_FALSE(schedule.Assign(1, 0).ok());
  // Different interval is fine.
  EXPECT_TRUE(schedule.CanAssign(1, 1));
  // Different location in the same interval is fine.
  EXPECT_TRUE(schedule.CanAssign(2, 0));
}

TEST(ScheduleTest, ResourceConstraintRejected) {
  const SesInstance instance = MakeInstance();
  Schedule schedule(instance);
  ASSERT_TRUE(schedule.Assign(0, 0).ok());  // 3 used
  ASSERT_TRUE(schedule.Assign(2, 0).ok());  // 6 used
  // e3 needs 8; 6 + 8 > 10.
  EXPECT_FALSE(schedule.CanAssign(3, 0));
  EXPECT_FALSE(schedule.Assign(3, 0).ok());
  // Fits in an empty interval.
  EXPECT_TRUE(schedule.Assign(3, 1).ok());
}

TEST(ScheduleTest, UnassignRestoresCapacityAndLocation) {
  const SesInstance instance = MakeInstance();
  Schedule schedule(instance);
  ASSERT_TRUE(schedule.Assign(0, 0).ok());
  ASSERT_TRUE(schedule.Unassign(0).ok());
  EXPECT_EQ(schedule.size(), 0u);
  EXPECT_FALSE(schedule.IsAssigned(0));
  EXPECT_DOUBLE_EQ(schedule.UsedResources(0), 0.0);
  // Location 0 is free again.
  EXPECT_TRUE(schedule.Assign(1, 0).ok());
}

TEST(ScheduleTest, UnassignUnassignedFails) {
  const SesInstance instance = MakeInstance();
  Schedule schedule(instance);
  EXPECT_FALSE(schedule.Unassign(2).ok());
}

TEST(ScheduleTest, OutOfRangeIndicesRejected) {
  const SesInstance instance = MakeInstance();
  Schedule schedule(instance);
  EXPECT_FALSE(schedule.CanAssign(99, 0));
  EXPECT_FALSE(schedule.CanAssign(0, 99));
  EXPECT_FALSE(schedule.Assign(99, 0).ok());
  EXPECT_FALSE(schedule.Assign(0, 99).ok());
  EXPECT_FALSE(schedule.Unassign(99).ok());
}

TEST(ScheduleTest, AssignmentsSortedByIntervalThenEvent) {
  const SesInstance instance = MakeInstance();
  Schedule schedule(instance);
  ASSERT_TRUE(schedule.Assign(3, 2).ok());
  ASSERT_TRUE(schedule.Assign(0, 1).ok());
  ASSERT_TRUE(schedule.Assign(2, 1).ok());
  const auto assignments = schedule.Assignments();
  ASSERT_EQ(assignments.size(), 3u);
  EXPECT_EQ(assignments[0], (Assignment{0, 1}));
  EXPECT_EQ(assignments[1], (Assignment{2, 1}));
  EXPECT_EQ(assignments[2], (Assignment{3, 2}));
}

TEST(ScheduleTest, CopyIsIndependent) {
  const SesInstance instance = MakeInstance();
  Schedule a(instance);
  ASSERT_TRUE(a.Assign(0, 0).ok());
  Schedule b = a;
  ASSERT_TRUE(b.Assign(2, 0).ok());
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(b.size(), 2u);
}

}  // namespace
}  // namespace ses::core
