#include "core/registry.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/objective.h"
#include "core/validate.h"
#include "tests/test_util.h"

namespace ses::core {
namespace {

TEST(RegistryTest, AllListedSolversConstruct) {
  for (const std::string& name : ListSolvers()) {
    auto solver = MakeSolver(name);
    ASSERT_TRUE(solver.ok()) << name;
    EXPECT_EQ(solver.value()->name(), name);
  }
}

TEST(RegistryTest, UnknownNameFails) {
  auto solver = MakeSolver("definitely-not-a-solver");
  ASSERT_FALSE(solver.ok());
  EXPECT_EQ(solver.status().code(), util::StatusCode::kNotFound);
}

TEST(RegistryTest, ListContainsThePaperMethods) {
  const auto names = ListSolvers();
  auto contains = [&names](const char* name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  EXPECT_TRUE(contains("grd"));
  EXPECT_TRUE(contains("top"));
  EXPECT_TRUE(contains("rand"));
}

TEST(RegistryTest, ConstructedSolversActuallySolve) {
  test::RandomInstanceConfig config;
  config.num_events = 6;
  config.num_intervals = 3;
  const SesInstance instance = test::MakeRandomInstance(config);
  SolverOptions options;
  options.k = 2;
  for (const std::string& name : ListSolvers()) {
    auto solver = MakeSolver(name);
    ASSERT_TRUE(solver.ok());
    auto result = solver.value()->Solve(instance, options);
    ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();
    EXPECT_TRUE(ValidateAssignments(instance, result->assignments).ok())
        << name;
  }
}

// Solver::Solve is every solver's frame: whatever DoSolve builds, the
// result names the solver, keeps the warm start, lists sorted feasible
// assignments, and prices them with the reference objective.
TEST(RegistryTest, EverySolverRunsInTheSolveFrame) {
  test::RandomInstanceConfig config;
  config.num_events = 8;
  config.num_intervals = 4;
  const SesInstance instance = test::MakeRandomInstance(config);
  SolverOptions prefix;
  prefix.k = 2;
  auto warm = MakeSolver("grd").value()->Solve(instance, prefix);
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm->assignments.size(), 2u);

  for (const std::string& name : ListSolvers()) {
    for (const bool warmed : {false, true}) {
      SCOPED_TRACE(name + (warmed ? " warm" : " cold"));
      SolverOptions options;
      options.k = 4;
      if (warmed) options.warm_start = warm->assignments;
      auto result = MakeSolver(name).value()->Solve(instance, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->solver, name);
      const std::vector<Assignment>& assignments = result->assignments;
      for (const Assignment& committed : options.warm_start) {
        EXPECT_NE(std::find(assignments.begin(), assignments.end(),
                            committed),
                  assignments.end());
      }
      EXPECT_TRUE(std::is_sorted(assignments.begin(), assignments.end()));
      EXPECT_TRUE(ValidateAssignments(instance, assignments).ok());
      const double replayed =
          TotalUtility(instance, test::Replay(instance, assignments));
      EXPECT_NEAR(result->utility, replayed, 1e-12 * replayed);
    }
  }
}

}  // namespace
}  // namespace ses::core
