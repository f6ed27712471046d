/// Serial-vs-parallel determinism of the greedy family: TOP, GRD, lazy
/// greedy and bestfit all read the one score grid, and must return
/// bit-identical SolverResults at 1 and N score-generation threads
/// (SolverOptions::threads), with or without a shared pool, and when
/// fanned out through api::Scheduler — the nested ParallelForShards
/// scenario the thread-pool re-entrancy fix enables.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/scheduler.h"
#include "core/registry.h"
#include "core/score_gen.h"
#include "core/solver.h"
#include "tests/test_util.h"
#include "util/thread_pool.h"

namespace ses::core {
namespace {

SesInstance MakeInstance(uint64_t seed) {
  test::RandomInstanceConfig config;
  config.seed = seed;
  config.num_users = 60;
  config.num_events = 24;
  config.num_intervals = 9;
  config.num_locations = 4;
  return test::MakeRandomInstance(config);
}

void ExpectIdentical(const SolverResult& a, const SolverResult& b,
                     const std::string& label) {
  EXPECT_EQ(a.assignments, b.assignments) << label;
  // Bitwise equality, not near-equality: the parallel pass must assemble
  // the exact doubles the serial pass does.
  EXPECT_EQ(a.utility, b.utility) << label;
  EXPECT_EQ(a.stats.gain_evaluations, b.stats.gain_evaluations) << label;
  EXPECT_EQ(a.stats.pops, b.stats.pops) << label;
  EXPECT_EQ(a.stats.updates, b.stats.updates) << label;
  EXPECT_TRUE(b.termination.ok()) << label;
}

class ParallelSolveTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelSolveTest, GenerationIsBitIdenticalAcrossShardCounts) {
  const SesInstance instance = MakeInstance(GetParam());
  SolverOptions options;
  options.k = 6;

  const size_t cells = static_cast<size_t>(instance.num_intervals()) *
                       instance.num_events();
  std::vector<double> serial(cells, 0.0);
  const ScoreGenResult serial_gen =
      GenerateAssignmentScores(instance, options, SolveContext(), serial);
  ASSERT_TRUE(serial_gen.termination.ok());

  util::ThreadPool pool(3);
  for (int64_t threads : {0, 2, 4, 16}) {
    SolverOptions parallel_options = options;
    parallel_options.threads = threads;
    parallel_options.pool = &pool;
    std::vector<double> parallel(cells, 0.0);
    const ScoreGenResult gen = GenerateAssignmentScores(
        instance, parallel_options, SolveContext(), parallel);
    ASSERT_TRUE(gen.termination.ok());
    EXPECT_EQ(gen.gain_evaluations, serial_gen.gain_evaluations);
    EXPECT_EQ(serial, parallel) << "threads=" << threads;
  }
}

TEST_P(ParallelSolveTest, GreedyFamilyMatchesSerialAtAnyThreadCount) {
  const SesInstance instance = MakeInstance(GetParam());
  util::ThreadPool pool(3);

  for (const char* name : {"top", "grd", "lazy", "bestfit"}) {
    auto solver = MakeSolver(name);
    ASSERT_TRUE(solver.ok());

    SolverOptions serial_options;
    serial_options.k = 8;
    auto serial = solver.value()->Solve(instance, serial_options);
    ASSERT_TRUE(serial.ok()) << name;

    // Shared pool, explicit shard counts.
    for (int64_t threads : {2, 4}) {
      SolverOptions options = serial_options;
      options.threads = threads;
      options.pool = &pool;
      auto parallel = solver.value()->Solve(instance, options);
      ASSERT_TRUE(parallel.ok()) << name;
      ExpectIdentical(*serial, *parallel,
                      std::string(name) + " threads=" +
                          std::to_string(threads));
    }

    // No pool handed in: the solver spins up a transient one.
    SolverOptions transient = serial_options;
    transient.threads = 3;
    auto parallel = solver.value()->Solve(instance, transient);
    ASSERT_TRUE(parallel.ok()) << name;
    ExpectIdentical(*serial, *parallel,
                    std::string(name) + " transient pool");
  }
}

TEST_P(ParallelSolveTest, WarmStartedParallelRunsMatchSerial) {
  const SesInstance instance = MakeInstance(GetParam());

  auto grd = MakeSolver("grd");
  ASSERT_TRUE(grd.ok());
  SolverOptions prefix_options;
  prefix_options.k = 3;
  auto prefix = grd.value()->Solve(instance, prefix_options);
  ASSERT_TRUE(prefix.ok());

  util::ThreadPool pool(3);
  for (const char* name : {"top", "grd", "lazy", "bestfit"}) {
    auto solver = MakeSolver(name);
    ASSERT_TRUE(solver.ok());
    SolverOptions options;
    options.k = 7;
    options.warm_start = prefix->assignments;
    auto serial = solver.value()->Solve(instance, options);
    ASSERT_TRUE(serial.ok()) << name;

    options.threads = 4;
    options.pool = &pool;
    auto parallel = solver.value()->Solve(instance, options);
    ASSERT_TRUE(parallel.ok()) << name;
    ExpectIdentical(*serial, *parallel,
                    std::string(name) + " warm-started");
  }
}

// Solvers fanned out by SolveBatch run *on* the scheduler pool and shard
// their generation across the same pool — the exact configuration that
// deadlocked before ParallelForShards became worker-re-entrant.
TEST_P(ParallelSolveTest, SchedulerBatchWithIntraSolverShardsMatchesSerial) {
  const SesInstance instance = MakeInstance(GetParam());

  api::Scheduler serial_scheduler(api::SchedulerOptions{.num_threads = 1});
  api::Scheduler scheduler(api::SchedulerOptions{.num_threads = 3});

  std::vector<api::SolveRequest> requests;
  for (const char* name : {"grd", "lazy", "grd", "lazy"}) {
    api::SolveRequest request;
    request.solver = name;
    request.options.k = 8;
    request.options.threads = 4;  // scheduler injects its own pool
    requests.push_back(std::move(request));
  }
  const auto parallel = scheduler.SolveBatch(instance, requests);
  ASSERT_EQ(parallel.size(), requests.size());

  for (size_t i = 0; i < requests.size(); ++i) {
    api::SolveRequest serial_request;
    serial_request.solver = requests[i].solver;
    serial_request.options.k = 8;
    const api::SolveResponse serial =
        serial_scheduler.Solve(instance, serial_request);
    ASSERT_TRUE(serial.status.ok());
    ASSERT_TRUE(parallel[i].status.ok()) << requests[i].solver;
    EXPECT_EQ(parallel[i].schedule, serial.schedule) << requests[i].solver;
    EXPECT_EQ(parallel[i].utility, serial.utility) << requests[i].solver;
    EXPECT_EQ(parallel[i].stats.gain_evaluations,
              serial.stats.gain_evaluations)
        << requests[i].solver;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelSolveTest,
                         ::testing::Values(3, 11, 29, 57));

}  // namespace
}  // namespace ses::core
