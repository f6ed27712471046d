#include "tests/reduction.h"

#include <gtest/gtest.h>

#include "core/exact.h"
#include "core/greedy.h"
#include "core/objective.h"

namespace ses::core {
namespace {

MkpiInstance SmallMkpi() {
  MkpiInstance mkpi;
  mkpi.capacity = 10.0;
  mkpi.num_bins = 2;
  mkpi.weights = {8.0, 6.0, 4.0, 3.0};
  mkpi.profits = {0.5, 0.4, 0.3, 0.2};  // already in (0,1)
  return mkpi;
}

TEST(ReductionTest, BuildsTheRestrictedInstance) {
  const MkpiInstance mkpi = SmallMkpi();
  ReductionParams params;
  auto instance = ReduceMkpiToSes(mkpi, params);
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();
  EXPECT_EQ(instance->num_users(), 4u);       // one user per item
  EXPECT_EQ(instance->num_events(), 4u);      // one event per item
  EXPECT_EQ(instance->num_intervals(), 2u);   // one interval per bin
  EXPECT_EQ(instance->num_competing(), 2u);   // one per interval
  EXPECT_DOUBLE_EQ(instance->theta(), 10.0);
  // Each user likes exactly their own event.
  for (EventIndex e = 0; e < 4; ++e) {
    auto users = instance->EventUsers(e);
    ASSERT_EQ(users.size(), 1u);
    EXPECT_EQ(users[0], e);
    EXPECT_DOUBLE_EQ(instance->event(e).required_resources,
                     mkpi.weights[e]);
  }
  // All users share interest K in every competing event.
  for (CompetingIndex c = 0; c < 2; ++c) {
    auto users = instance->CompetingUsers(c);
    EXPECT_EQ(users.size(), 4u);
    for (float v : instance->CompetingValues(c)) {
      EXPECT_FLOAT_EQ(v, 0.2f);
    }
  }
}

TEST(ReductionTest, ScheduledItemContributesSigmaTimesProfit) {
  const MkpiInstance mkpi = SmallMkpi();
  ReductionParams params;
  params.sigma = 0.75;
  auto instance = ReduceMkpiToSes(mkpi, params);
  ASSERT_TRUE(instance.ok());

  Schedule schedule(*instance);
  ASSERT_TRUE(schedule.Assign(0, 0).ok());
  // rho = sigma * mu / (K + mu) with mu = pK/(1-p) gives sigma * p.
  EXPECT_NEAR(TotalUtility(*instance, schedule), 0.75 * 0.5, 1e-6);

  // A second item contributes additively (disjoint users). Item 2 does
  // not fit next to item 0 (8 + 4 > 10), so it goes to the other bin;
  // placement does not change the utility in the reduced instance.
  ASSERT_TRUE(schedule.Assign(2, 1).ok());
  EXPECT_NEAR(TotalUtility(*instance, schedule), 0.75 * (0.5 + 0.3), 1e-6);
}

TEST(ReductionTest, SesOptimumEqualsMkpiOptimumForEachK) {
  const MkpiInstance mkpi = SmallMkpi();
  ReductionParams params;
  auto instance = ReduceMkpiToSes(mkpi, params);
  ASSERT_TRUE(instance.ok());

  for (int k = 1; k <= 4; ++k) {
    auto mkpi_best = SolveMkpiExact(mkpi, k);
    SolverOptions options;
    options.k = k;
    ExactSolver exact;
    auto ses_best = exact.Solve(*instance, options);

    if (!mkpi_best.ok()) {
      EXPECT_FALSE(ses_best.ok()) << "k=" << k;
      continue;
    }
    ASSERT_TRUE(ses_best.ok()) << "k=" << k;
    EXPECT_NEAR(ses_best->utility,
                ExpectedSesUtility(params, mkpi_best->profit), 1e-6)
        << "k=" << k;
  }
}

TEST(ReductionTest, GreedySolvesTheSeparableCaseOptimally) {
  // With disjoint users the objective is additive across events, so GRD's
  // one-step-optimal choices are globally optimal here.
  const MkpiInstance mkpi = SmallMkpi();
  ReductionParams params;
  auto instance = ReduceMkpiToSes(mkpi, params);
  ASSERT_TRUE(instance.ok());

  SolverOptions options;
  options.k = 2;
  GreedySolver grd;
  ExactSolver exact;
  auto greedy = grd.Solve(*instance, options);
  auto optimal = exact.Solve(*instance, options);
  ASSERT_TRUE(greedy.ok());
  ASSERT_TRUE(optimal.ok());
  EXPECT_NEAR(greedy->utility, optimal->utility, 1e-6);
}

TEST(ReductionTest, NormalizeBringsProfitsBelowOne) {
  MkpiInstance mkpi;
  mkpi.capacity = 5.0;
  mkpi.num_bins = 1;
  mkpi.weights = {1.0, 2.0};
  mkpi.profits = {10.0, 30.0};
  const MkpiInstance normalized = NormalizeMkpiProfits(mkpi, 1.25);
  EXPECT_NEAR(normalized.profits[1], 0.8, 1e-12);
  EXPECT_NEAR(normalized.profits[0], 0.8 / 3.0, 1e-12);
  for (double p : normalized.profits) {
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 1.0);
  }
}

TEST(ReductionTest, RejectsUnnormalizedProfits) {
  MkpiInstance mkpi;
  mkpi.capacity = 5.0;
  mkpi.num_bins = 1;
  mkpi.weights = {1.0};
  mkpi.profits = {2.0};  // >= 1
  ReductionParams params;
  EXPECT_FALSE(ReduceMkpiToSes(mkpi, params).ok());
}

TEST(ReductionTest, RejectsInterestOverflow) {
  MkpiInstance mkpi;
  mkpi.capacity = 5.0;
  mkpi.num_bins = 1;
  mkpi.weights = {1.0};
  mkpi.profits = {0.99};  // mu = 0.99*K/0.01 = 99K > 1 for K=0.2
  ReductionParams params;
  EXPECT_FALSE(ReduceMkpiToSes(mkpi, params).ok());
}

TEST(ReductionTest, EndToEndWithNormalization) {
  MkpiInstance raw;
  raw.capacity = 12.0;
  raw.num_bins = 2;
  raw.weights = {7.0, 5.0, 5.0, 4.0, 3.0};
  raw.profits = {9.0, 7.0, 6.0, 5.0, 3.0};
  const MkpiInstance normalized = NormalizeMkpiProfits(raw, 2.0);

  ReductionParams params;
  params.competing_interest = 0.15;
  auto instance = ReduceMkpiToSes(normalized, params);
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();

  auto mkpi_best = SolveMkpiExact(normalized, 3);
  ASSERT_TRUE(mkpi_best.ok());
  SolverOptions options;
  options.k = 3;
  ExactSolver exact;
  auto ses_best = exact.Solve(*instance, options);
  ASSERT_TRUE(ses_best.ok());
  EXPECT_NEAR(ses_best->utility,
              ExpectedSesUtility(params, mkpi_best->profit), 1e-6);
}

}  // namespace
}  // namespace ses::core
