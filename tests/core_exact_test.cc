#include "core/exact.h"

#include <functional>

#include <gtest/gtest.h>

#include "core/greedy.h"
#include "core/objective.h"
#include "core/validate.h"
#include "tests/test_util.h"

namespace ses::core {
namespace {

/// Brute-force optimum by enumerating all size-k assignment sets through
/// recursion over events — the independent oracle the solver must match.
double BruteForceOptimum(const SesInstance& instance, size_t k) {
  double best = -1.0;
  Schedule schedule(instance);
  std::function<void(EventIndex, size_t)> recurse =
      [&](EventIndex next, size_t chosen) {
        if (chosen == k) {
          best = std::max(best, TotalUtility(instance, schedule));
          return;
        }
        if (next >= instance.num_events()) return;
        for (IntervalIndex t = 0; t < instance.num_intervals(); ++t) {
          if (!schedule.CanAssign(next, t)) continue;
          ASSERT_TRUE(schedule.Assign(next, t).ok());
          recurse(next + 1, chosen + 1);
          ASSERT_TRUE(schedule.Unassign(next).ok());
        }
        recurse(next + 1, chosen);
      };
  recurse(0, 0);
  return best;
}

class ExactSolverTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExactSolverTest, MatchesBruteForceOnSmallInstances) {
  test::RandomInstanceConfig config;
  config.seed = GetParam();
  config.num_users = 12;
  config.num_events = 5;
  config.num_intervals = 3;
  config.theta = 8.0;
  const SesInstance instance = test::MakeRandomInstance(config);

  for (int64_t k = 1; k <= 3; ++k) {
    SolverOptions options;
    options.k = k;
    ExactSolver exact;
    auto result = exact.Solve(instance, options);
    const double brute = BruteForceOptimum(instance, static_cast<size_t>(k));
    if (brute < 0.0) {
      EXPECT_FALSE(result.ok());
      continue;
    }
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_NEAR(result->utility, brute, 1e-7) << "k=" << k;
    EXPECT_TRUE(ValidateAssignments(instance, result->assignments, k).ok());
  }
}

TEST_P(ExactSolverTest, GreedyNeverBeatsExact) {
  test::RandomInstanceConfig config;
  config.seed = GetParam() + 1000;
  config.num_users = 15;
  config.num_events = 6;
  config.num_intervals = 3;
  const SesInstance instance = test::MakeRandomInstance(config);

  SolverOptions options;
  options.k = 3;
  ExactSolver exact;
  GreedySolver grd;
  auto optimal = exact.Solve(instance, options);
  auto greedy = grd.Solve(instance, options);
  ASSERT_TRUE(optimal.ok());
  ASSERT_TRUE(greedy.ok());
  EXPECT_LE(greedy->utility, optimal->utility + 1e-9);
  // Greedy should stay within a reasonable factor on these instances.
  EXPECT_GE(greedy->utility, 0.5 * optimal->utility);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactSolverTest,
                         ::testing::Values(4, 9, 16, 25, 36, 49));

TEST(ExactSolverLimitsTest, NodeBudgetExhaustionReported) {
  test::RandomInstanceConfig config;
  config.num_events = 10;
  config.num_intervals = 6;
  const SesInstance instance = test::MakeRandomInstance(config);
  SolverOptions options;
  options.k = 5;
  options.max_nodes = 10;  // absurdly small
  ExactSolver exact;
  auto result = exact.Solve(instance, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kResourceExhausted);
}

TEST(ExactSolverLimitsTest, CountsBoundProbeEvaluations) {
  // The search's gains all run inside Apply, which does not count them;
  // the bound probe scores every pair once on the empty schedule.
  test::RandomInstanceConfig config;
  config.num_events = 8;
  config.num_intervals = 4;
  const SesInstance instance = test::MakeRandomInstance(config);
  SolverOptions options;
  options.k = 3;
  ExactSolver exact;
  auto complete = exact.Solve(instance, options);
  ASSERT_TRUE(complete.ok()) << complete.status().ToString();
  ASSERT_TRUE(complete->termination.ok());
  EXPECT_EQ(complete->stats.gain_evaluations,
            static_cast<uint64_t>(instance.num_events()) *
                instance.num_intervals());

  // A ~0 deadline stops the probe before its first interval.
  SolveContext expired;
  expired.deadline = Deadline::After(0.0);
  auto stopped = exact.Solve(instance, options, expired);
  ASSERT_TRUE(stopped.ok()) << stopped.status().ToString();
  EXPECT_EQ(stopped->termination.code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_LT(stopped->stats.gain_evaluations,
            complete->stats.gain_evaluations);
}

TEST(ExactSolverLimitsTest, InfeasibleKReported) {
  // Two events sharing one location, a single interval: k=2 impossible.
  InstanceBuilder builder;
  builder.SetNumUsers(1).SetNumIntervals(1).SetTheta(10.0).SetSigma(
      std::make_shared<ConstSigma>(1.0));
  builder.AddEvent(0, 1.0, {{0, 0.9f}});
  builder.AddEvent(0, 1.0, {{0, 0.8f}});
  auto instance = builder.Build();
  ASSERT_TRUE(instance.ok());
  SolverOptions options;
  options.k = 2;
  ExactSolver exact;
  auto result = exact.Solve(*instance, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInfeasible);
}

TEST(ExactSolverLimitsTest, PicksTheObviouslyBetterEvent) {
  // e0 has twice the interest of e1 with identical competition: the
  // optimum for k=1 must schedule e0 alone at the competition-free
  // interval.
  InstanceBuilder builder;
  builder.SetNumUsers(2).SetNumIntervals(2).SetTheta(10.0).SetSigma(
      std::make_shared<ConstSigma>(1.0));
  builder.AddEvent(0, 1.0, {{0, 0.8f}, {1, 0.8f}});
  builder.AddEvent(1, 1.0, {{0, 0.4f}});
  builder.AddCompetingEvent(0, {{0, 0.5f}, {1, 0.5f}});
  auto instance = builder.Build();
  ASSERT_TRUE(instance.ok());
  SolverOptions options;
  options.k = 1;
  ExactSolver exact;
  auto result = exact.Solve(*instance, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->assignments.size(), 1u);
  EXPECT_EQ(result->assignments[0].event, 0u);
  EXPECT_EQ(result->assignments[0].interval, 1u);  // no competition there
  EXPECT_NEAR(result->utility, 2.0, 1e-9);
}

}  // namespace
}  // namespace ses::core
