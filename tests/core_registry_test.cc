#include "core/registry.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace ses::core
