/// Incremental re-planning: every constructive solver, and exact, accepts
/// a pre-committed partial schedule (SolverOptions::warm_start) and
/// extends it to k assignments without disturbing the committed part.

#include <gtest/gtest.h>

#include "core/greedy.h"
#include "core/objective.h"
#include "core/registry.h"
#include "core/validate.h"
#include "tests/test_util.h"

namespace ses::core {
namespace {

class WarmStartTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  SesInstance MakeInstance() const {
    test::RandomInstanceConfig config;
    config.seed = GetParam();
    config.num_users = 30;
    config.num_events = 12;
    config.num_intervals = 5;
    return test::MakeRandomInstance(config);
  }
};

TEST_P(WarmStartTest, ConstructiveSolversKeepCommittedAssignments) {
  const SesInstance instance = MakeInstance();

  // Commit a 3-assignment prefix computed by GRD.
  GreedySolver grd;
  SolverOptions prefix_options;
  prefix_options.k = 3;
  prefix_options.seed = GetParam();
  auto prefix = grd.Solve(instance, prefix_options);
  ASSERT_TRUE(prefix.ok());

  for (const char* name :
       {"grd", "lazy", "bestfit", "top", "rand", "exact"}) {
    auto solver = MakeSolver(name);
    ASSERT_TRUE(solver.ok());
    SolverOptions options;
    options.k = 6;
    options.seed = GetParam();
    options.warm_start = prefix->assignments;
    auto result = solver.value()->Solve(instance, options);
    ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();
    EXPECT_TRUE(ValidateAssignments(instance, result->assignments, 6).ok())
        << name;
    // Every committed assignment survives verbatim.
    for (const Assignment& committed : prefix->assignments) {
      EXPECT_NE(std::find(result->assignments.begin(),
                          result->assignments.end(), committed),
                result->assignments.end())
          << name << " dropped a committed assignment";
    }
  }
}

TEST_P(WarmStartTest, ExactIsOptimalAmongExtensions) {
  const SesInstance instance = MakeInstance();
  GreedySolver grd;
  SolverOptions options;
  options.k = 3;
  auto prefix = grd.Solve(instance, options);
  ASSERT_TRUE(prefix.ok());

  options.k = 6;
  options.warm_start = prefix->assignments;
  auto exact = MakeSolver("exact").value()->Solve(instance, options);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  for (const char* name : {"grd", "lazy", "bestfit", "top", "rand"}) {
    auto result = MakeSolver(name).value()->Solve(instance, options);
    ASSERT_TRUE(result.ok()) << name;
    EXPECT_GE(exact->utility, result->utility - 1e-9) << name;
  }
}

TEST_P(WarmStartTest, StoppedSolveStillReturnsCommittedAssignments) {
  const SesInstance instance = MakeInstance();
  GreedySolver grd;
  SolverOptions prefix_options;
  prefix_options.k = 3;
  auto prefix = grd.Solve(instance, prefix_options);
  ASSERT_TRUE(prefix.ok());

  SolveContext expired;
  expired.deadline = Deadline::After(0.0);
  for (const char* name :
       {"grd", "lazy", "bestfit", "top", "rand", "exact"}) {
    auto solver = MakeSolver(name);
    ASSERT_TRUE(solver.ok());
    SolverOptions options;
    options.k = 6;
    options.warm_start = prefix->assignments;
    auto result = solver.value()->Solve(instance, options, expired);
    ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();
    EXPECT_EQ(result->termination.code(),
              util::StatusCode::kDeadlineExceeded)
        << name;
    // The committed part is feasible by itself, so the partial schedule
    // keeps it.
    for (const Assignment& committed : prefix->assignments) {
      EXPECT_NE(std::find(result->assignments.begin(),
                          result->assignments.end(), committed),
                result->assignments.end())
          << name << " dropped a committed assignment";
    }
  }
}

TEST_P(WarmStartTest, ExtendingCanOnlyAddUtility) {
  const SesInstance instance = MakeInstance();
  GreedySolver grd;
  SolverOptions prefix_options;
  prefix_options.k = 3;
  auto prefix = grd.Solve(instance, prefix_options);
  ASSERT_TRUE(prefix.ok());

  SolverOptions options;
  options.k = 6;
  options.warm_start = prefix->assignments;
  auto extended = grd.Solve(instance, options);
  ASSERT_TRUE(extended.ok());
  // Marginal gains are non-negative, so extending never loses utility.
  EXPECT_GE(extended->utility, prefix->utility - 1e-9);
}

TEST_P(WarmStartTest, WarmStartedGreedyMatchesItsOwnContinuation) {
  // Cold GRD to k and GRD warm-started with its own k-3 prefix must
  // agree: the greedy selection sequence is deterministic and
  // history-independent given the same partial schedule.
  const SesInstance instance = MakeInstance();
  GreedySolver grd;

  SolverOptions cold_options;
  cold_options.k = 6;
  auto cold = grd.Solve(instance, cold_options);
  ASSERT_TRUE(cold.ok());

  // Re-run to k=3 to recover the prefix greedy actually chose.
  SolverOptions prefix_options;
  prefix_options.k = 3;
  auto prefix = grd.Solve(instance, prefix_options);
  ASSERT_TRUE(prefix.ok());

  SolverOptions warm_options;
  warm_options.k = 6;
  warm_options.warm_start = prefix->assignments;
  auto warm = grd.Solve(instance, warm_options);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->assignments, cold->assignments);
  EXPECT_NEAR(warm->utility, cold->utility, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WarmStartTest,
                         ::testing::Values(2, 4, 8, 16, 32));

TEST(WarmStartValidationTest, RejectsOversizedWarmStart) {
  test::RandomInstanceConfig config;
  const SesInstance instance = test::MakeRandomInstance(config);
  GreedySolver grd;
  SolverOptions options;
  options.k = 1;
  options.warm_start = {{0, 0}, {1, 1}};
  EXPECT_FALSE(grd.Solve(instance, options).ok());
}

TEST(WarmStartValidationTest, RejectsInfeasibleWarmStart) {
  test::RandomInstanceConfig config;
  const SesInstance instance = test::MakeRandomInstance(config);
  GreedySolver grd;
  SolverOptions options;
  options.k = 3;
  options.warm_start = {{0, 0}, {0, 1}};  // same event twice
  EXPECT_FALSE(grd.Solve(instance, options).ok());
}

// A warm start whose resource total exceeds theta by less than
// ValidateAssignments' 1e-9 tolerance fails the schedule's strict
// feasibility check. ValidateSolverOptions replays it with that check,
// so every solver, handed it directly through Solver::Solve, returns a
// typed InvalidArgument rather than aborting.
TEST(WarmStartValidationTest, NearThetaWarmStartReturnsInvalidArgument) {
  InstanceBuilder builder;
  builder.SetNumUsers(4).SetNumIntervals(2).SetTheta(1.0).SetSigma(
      std::make_shared<HashUniformSigma>(1));
  // Two events at distinct locations, each needing just over theta/2:
  // individually fine, jointly over theta by 5e-10 (< the 1e-9 slack).
  builder.AddEvent(/*location=*/0, /*required_resources=*/0.5 + 2.5e-10,
                   {{0u, 0.5f}});
  builder.AddEvent(/*location=*/1, /*required_resources=*/0.5 + 2.5e-10,
                   {{1u, 0.5f}});
  auto instance = builder.Build();
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();

  SolverOptions options;
  options.k = 2;
  options.warm_start = {{0, 0}, {1, 0}};
  // ValidateAssignments accepts this warm start (within tolerance)...
  ASSERT_TRUE(ValidateAssignments(*instance, options.warm_start).ok());
  EXPECT_EQ(ValidateSolverOptions(*instance, options).code(),
            util::StatusCode::kInvalidArgument);

  for (const char* name :
       {"grd", "lazy", "bestfit", "top", "rand", "exact"}) {
    auto solver = MakeSolver(name);
    ASSERT_TRUE(solver.ok());
    // ...but applying it is infeasible: expect a typed error, not a
    // process abort.
    auto result = solver.value()->Solve(*instance, options);
    ASSERT_FALSE(result.ok()) << name;
    EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument)
        << name << ": " << result.status().ToString();
  }
}

TEST(WarmStartValidationTest, WarmStartEqualToKReturnsItUnchanged) {
  test::RandomInstanceConfig config;
  config.seed = 7;
  const SesInstance instance = test::MakeRandomInstance(config);
  GreedySolver grd;
  SolverOptions prefix_options;
  prefix_options.k = 2;
  auto prefix = grd.Solve(instance, prefix_options);
  ASSERT_TRUE(prefix.ok());

  SolverOptions options;
  options.k = 2;
  options.warm_start = prefix->assignments;
  auto result = grd.Solve(instance, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->assignments, prefix->assignments);
}

}  // namespace
}  // namespace ses::core
