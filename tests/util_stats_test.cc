#include "util/stats.h"

#include <cmath>

#include <gtest/gtest.h>

namespace ses::util {
namespace {

TEST(RunningStatTest, EmptyDefaults) {
  RunningStat rs;
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_EQ(rs.mean(), 0.0);
  EXPECT_EQ(rs.variance(), 0.0);
  EXPECT_EQ(rs.sum(), 0.0);
}

TEST(RunningStatTest, SingleValue) {
  RunningStat rs;
  rs.Add(5.0);
  EXPECT_EQ(rs.count(), 1u);
  EXPECT_EQ(rs.mean(), 5.0);
  EXPECT_EQ(rs.variance(), 0.0);
  EXPECT_EQ(rs.min(), 5.0);
  EXPECT_EQ(rs.max(), 5.0);
}

TEST(RunningStatTest, KnownMoments) {
  RunningStat rs;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) rs.Add(x);
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
  // Sample variance of the classic dataset: 32/7.
  EXPECT_NEAR(rs.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(rs.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_EQ(rs.min(), 2.0);
  EXPECT_EQ(rs.max(), 9.0);
  EXPECT_EQ(rs.sum(), 40.0);
}

TEST(PercentileTest, InterpolatesLinearly) {
  const std::vector<double> sorted{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(PercentileSorted(sorted, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(PercentileSorted(sorted, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(PercentileSorted(sorted, 0.5), 25.0);
  EXPECT_DOUBLE_EQ(PercentileSorted(sorted, 1.0 / 3.0), 20.0);
}

TEST(PercentileTest, SingleElement) {
  EXPECT_EQ(PercentileSorted({7.5}, 0.5), 7.5);
}

// The empty-window contract: no abort, count = 0, NaN-marked order
// statistics, so a caller summarizing an empty sample (the events of a
// dataset generated with --events=0, say) gets a printable result.
TEST(SummarizeTest, EmptySample) {
  Summary s = Summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.stddev, 0.0);
  EXPECT_TRUE(std::isnan(s.min));
  EXPECT_TRUE(std::isnan(s.max));
  EXPECT_TRUE(std::isnan(s.p50));
  EXPECT_TRUE(std::isnan(s.p90));
  EXPECT_TRUE(std::isnan(s.p99));
  EXPECT_FALSE(s.ToString().empty());
}

TEST(PercentileTest, EmptySampleYieldsNaNNotAbort) {
  EXPECT_TRUE(std::isnan(PercentileSorted({}, 0.0)));
  EXPECT_TRUE(std::isnan(PercentileSorted({}, 0.5)));
  EXPECT_TRUE(std::isnan(PercentileSorted({}, 1.0)));
}

TEST(SummarizeTest, BasicFields) {
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(static_cast<double>(i));
  Summary s = Summarize(values);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 100.0);
  EXPECT_NEAR(s.p50, 50.5, 1e-9);
  EXPECT_NEAR(s.p90, 90.1, 1e-9);
  EXPECT_NEAR(s.p99, 99.01, 1e-9);
  EXPECT_FALSE(s.ToString().empty());
}

TEST(SummarizeTest, UnsortedInputHandled) {
  Summary s = Summarize({5.0, 1.0, 3.0});
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.p50, 3.0);
}

}  // namespace
}  // namespace ses::util
