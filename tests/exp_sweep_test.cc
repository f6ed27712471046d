#include "exp/sweep.h"

#include <gtest/gtest.h>

#include "tests/sweep_test_util.h"

namespace ses::exp {
namespace {

using test::KSweepConfig;
using test::SweepDataset;

TEST(SweepTest, AggregatesAcrossRepetitions) {
  WorkloadFactory factory(SweepDataset());
  auto cells = RunRepeatedSweep(factory, {5, 10}, KSweepConfig(),
                                {"grd", "rand"}, 3, 17);
  ASSERT_TRUE(cells.ok()) << cells.status().ToString();
  // 2 xs * 2 solvers = 4 cells, 3 samples each.
  ASSERT_EQ(cells->size(), 4u);
  for (const SweepCell& cell : *cells) {
    EXPECT_EQ(cell.utility.count, 3u);
    EXPECT_EQ(cell.seconds.count, 3u);
    EXPECT_GT(cell.utility.mean, 0.0);
    EXPECT_GE(cell.utility.max, cell.utility.min);
  }
}

TEST(SweepTest, GreedyDominatesRandInAggregate) {
  WorkloadFactory factory(SweepDataset());
  auto cells = RunRepeatedSweep(factory, {10}, KSweepConfig(),
                                {"grd", "rand"}, 3, 29);
  ASSERT_TRUE(cells.ok());
  double grd_mean = 0.0;
  double rand_mean = 0.0;
  for (const SweepCell& cell : *cells) {
    if (cell.solver == "grd") grd_mean = cell.utility.mean;
    if (cell.solver == "rand") rand_mean = cell.utility.mean;
  }
  EXPECT_GT(grd_mean, rand_mean);
}

TEST(SweepTest, RejectsZeroRepetitions) {
  WorkloadFactory factory(SweepDataset());
  auto cells =
      RunRepeatedSweep(factory, {5}, KSweepConfig(), {"grd"}, 0, 1);
  EXPECT_FALSE(cells.ok());
}

TEST(SweepTest, UnknownSolverPropagates) {
  WorkloadFactory factory(SweepDataset());
  auto cells =
      RunRepeatedSweep(factory, {5}, KSweepConfig(), {"bogus"}, 1, 1);
  EXPECT_FALSE(cells.ok());
}

TEST(SweepTest, RenderShowsMeanAndDeviation) {
  std::vector<SweepCell> cells;
  SweepCell cell;
  cell.x = 10;
  cell.solver = "grd";
  cell.utility = util::Summarize({100.0, 110.0, 120.0});
  cell.seconds = util::Summarize({1.0, 1.0, 1.0});
  cells.push_back(cell);

  const std::string utility_table =
      RenderSweepTable("title", "k", {"grd"}, cells, false);
  EXPECT_NE(utility_table.find("110.00"), std::string::npos);
  EXPECT_NE(utility_table.find("10.00"), std::string::npos);  // stddev

  const std::string seconds_table =
      RenderSweepTable("title", "k", {"grd"}, cells, true);
  EXPECT_NE(seconds_table.find("1.00"), std::string::npos);

  const std::string missing =
      RenderSweepTable("title", "k", {"grd", "other"}, cells, false);
  EXPECT_NE(missing.find("-"), std::string::npos);
}

}  // namespace
}  // namespace ses::exp
