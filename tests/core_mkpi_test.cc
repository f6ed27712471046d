#include "tests/mkpi.h"

#include <gtest/gtest.h>

namespace ses::core {
namespace {

TEST(MkpiValidateTest, RejectsBadInstances) {
  MkpiInstance bad;
  bad.capacity = 10.0;
  bad.num_bins = 0;
  bad.weights = {1.0};
  bad.profits = {1.0};
  EXPECT_FALSE(bad.Validate().ok());

  bad.num_bins = 1;
  bad.weights = {1.0, 2.0};  // mismatch
  EXPECT_FALSE(bad.Validate().ok());

  bad.weights = {-1.0};
  bad.profits = {1.0};
  EXPECT_FALSE(bad.Validate().ok());

  bad.weights = {1.0};
  bad.profits = {0.0};
  EXPECT_FALSE(bad.Validate().ok());
}

TEST(MkpiExactTest, SingleBinKnapsack) {
  // Classic 0/1 knapsack: capacity 10, best is {w8,p10} + nothing else
  // vs {6,4} packing profits 8+6=14.
  MkpiInstance mkpi;
  mkpi.capacity = 10.0;
  mkpi.num_bins = 1;
  mkpi.weights = {8.0, 6.0, 4.0, 3.0};
  mkpi.profits = {10.0, 8.0, 6.0, 4.0};
  auto solution = SolveMkpiExact(mkpi);
  ASSERT_TRUE(solution.ok());
  EXPECT_DOUBLE_EQ(solution->profit, 14.0);
}

TEST(MkpiExactTest, TwoBinsPackMore) {
  MkpiInstance mkpi;
  mkpi.capacity = 10.0;
  mkpi.num_bins = 2;
  mkpi.weights = {8.0, 6.0, 4.0, 3.0};
  mkpi.profits = {10.0, 8.0, 6.0, 4.0};
  // Bin A: 8 (p10); bin B: 6+4 (p14) -> 24. Adding 3 anywhere overflows.
  auto solution = SolveMkpiExact(mkpi);
  ASSERT_TRUE(solution.ok());
  EXPECT_DOUBLE_EQ(solution->profit, 24.0);
}

TEST(MkpiExactTest, EnoughBinsPackEverything) {
  MkpiInstance mkpi;
  mkpi.capacity = 10.0;
  mkpi.num_bins = 4;
  mkpi.weights = {8.0, 6.0, 4.0, 3.0};
  mkpi.profits = {10.0, 8.0, 6.0, 4.0};
  auto solution = SolveMkpiExact(mkpi);
  ASSERT_TRUE(solution.ok());
  EXPECT_DOUBLE_EQ(solution->profit, 28.0);
  for (int bin : solution->bin_of_item) EXPECT_GE(bin, 0);
}

TEST(MkpiExactTest, SolutionRespectsCapacity) {
  MkpiInstance mkpi;
  mkpi.capacity = 7.0;
  mkpi.num_bins = 2;
  mkpi.weights = {5.0, 4.0, 3.0, 2.0, 2.0};
  mkpi.profits = {5.0, 4.5, 3.0, 2.5, 2.0};
  auto solution = SolveMkpiExact(mkpi);
  ASSERT_TRUE(solution.ok());
  std::vector<double> load(2, 0.0);
  double profit = 0.0;
  for (size_t i = 0; i < mkpi.weights.size(); ++i) {
    const int bin = solution->bin_of_item[i];
    if (bin < 0) continue;
    load[static_cast<size_t>(bin)] += mkpi.weights[i];
    profit += mkpi.profits[i];
  }
  EXPECT_LE(load[0], 7.0 + 1e-9);
  EXPECT_LE(load[1], 7.0 + 1e-9);
  EXPECT_DOUBLE_EQ(profit, solution->profit);
}

TEST(MkpiExactTest, ExactlyKItemsConstraint) {
  MkpiInstance mkpi;
  mkpi.capacity = 10.0;
  mkpi.num_bins = 2;
  mkpi.weights = {8.0, 6.0, 4.0, 3.0};
  mkpi.profits = {10.0, 8.0, 6.0, 4.0};

  // k=2: best pair fitting two bins: {8 (10), 6 (8)} = 18.
  auto two = SolveMkpiExact(mkpi, 2);
  ASSERT_TRUE(two.ok());
  EXPECT_DOUBLE_EQ(two->profit, 18.0);
  int packed = 0;
  for (int bin : two->bin_of_item) packed += bin >= 0 ? 1 : 0;
  EXPECT_EQ(packed, 2);

  // k=4: impossible (total weight 21 > 20).
  auto four = SolveMkpiExact(mkpi, 4);
  EXPECT_FALSE(four.ok());
  EXPECT_EQ(four.status().code(), util::StatusCode::kInfeasible);
}

TEST(MkpiExactTest, ZeroCapacityOnlyZeroWeightItems) {
  MkpiInstance mkpi;
  mkpi.capacity = 0.0;
  mkpi.num_bins = 2;
  mkpi.weights = {0.0, 1.0};
  mkpi.profits = {3.0, 5.0};
  auto solution = SolveMkpiExact(mkpi);
  ASSERT_TRUE(solution.ok());
  EXPECT_DOUBLE_EQ(solution->profit, 3.0);
  EXPECT_GE(solution->bin_of_item[0], 0);
  EXPECT_EQ(solution->bin_of_item[1], -1);
}

}  // namespace
}  // namespace ses::core
