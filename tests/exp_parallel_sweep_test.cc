/// Fan-out of exp::RunSweep: records are bitwise identical at every
/// `jobs` and solver-thread count, the pool stays core-sized, and errors
/// come back deterministically.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <thread>

#include <gtest/gtest.h>

#include "exp/sweep.h"
#include "tests/sweep_test_util.h"

namespace ses::exp {
namespace {

using test::ExpectSameRecords;
using test::KSweepConfig;
using test::MakePoints;
using test::SweepDataset;

/// Threads in this process per /proc/self/status; 0 where unavailable.
size_t ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoul(line.substr(8));
  }
  return 0;
}

TEST(RunSweepTest, RecordsIdenticalAtEveryJobsAndSolverThreads) {
  WorkloadFactory factory(SweepDataset());
  const std::vector<std::string> solvers{"grd", "lazy", "bestfit", "top",
                                         "rand"};
  const std::vector<int64_t> ks{4, 6, 8, 10, 12, 14};

  auto reference = RunSweep(factory, MakePoints(ks), solvers, /*jobs=*/1);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  // One record per (point, solver): point order, then solver order.
  ASSERT_EQ(reference->size(), ks.size() * solvers.size());
  for (size_t i = 0; i < reference->size(); ++i) {
    const RunRecord& record = (*reference)[i];
    EXPECT_EQ(record.solver, solvers[i % solvers.size()]);
    EXPECT_EQ(record.x, ks[i / solvers.size()]);
    EXPECT_EQ(record.assignments, static_cast<size_t>(record.x));
    EXPECT_GT(record.utility, 0.0);
    EXPECT_GE(record.measurement.seconds, 0.0);
  }

  for (size_t jobs : {1u, 2u, 0u}) {
    for (int64_t threads : {1, 0}) {
      SCOPED_TRACE(testing::Message()
                   << "jobs=" << jobs << " threads=" << threads);
      auto records =
          RunSweep(factory, MakePoints(ks, threads), solvers, jobs);
      ASSERT_TRUE(records.ok()) << records.status().ToString();
      ExpectSameRecords(*reference, *records);
    }
  }
}

TEST(RunSweepTest, MorePointsThanLanes) {
  WorkloadFactory factory(SweepDataset());
  std::vector<int64_t> ks;
  for (int64_t k = 2; k < 34; ++k) ks.push_back(k);
  const auto points = MakePoints(ks);

  auto one_lane = RunSweep(factory, points, {"rand"}, 1);
  ASSERT_TRUE(one_lane.ok());
  auto two_lanes = RunSweep(factory, points, {"rand"}, 2);
  ASSERT_TRUE(two_lanes.ok());
  ExpectSameRecords(*one_lane, *two_lanes);
}

TEST(RunSweepTest, HugeJobsUsesOneThreadPerCoreAndMatchesOneLane) {
  const size_t before = ProcessThreads();
  if (before == 0) GTEST_SKIP() << "/proc/self/status is not available";
  WorkloadFactory factory(SweepDataset());
  const std::vector<std::string> solvers{"grd", "lazy", "bestfit"};
  const std::vector<int64_t> ks{10, 14, 18, 22, 26, 30, 34, 38};

  auto one_lane = RunSweep(factory, MakePoints(ks), solvers, 1);
  ASSERT_TRUE(one_lane.ok()) << one_lane.status().ToString();

  // Sample the thread count while a sweep asks for a million lanes and
  // all-core score generation.
  std::atomic<bool> done{false};
  std::atomic<size_t> peak{0};
  std::thread monitor([&] {
    while (!done.load()) {
      peak.store(std::max(peak.load(), ProcessThreads()));
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  auto huge = RunSweep(factory, MakePoints(ks, /*solver_threads=*/0),
                       solvers, 1'000'000);
  done.store(true);
  monitor.join();
  ASSERT_TRUE(huge.ok()) << huge.status().ToString();
  ExpectSameRecords(*one_lane, *huge);

  // The caller plus max(2, cores) - 1 pool workers, and the monitor.
  const size_t lanes =
      std::max<size_t>(2, std::thread::hardware_concurrency());
  EXPECT_LE(peak.load(), before + lanes);
  EXPECT_GT(peak.load(), before + 1) << "no sample saw the sweep's pool";
}

TEST(RunSweepTest, LaterBuildFailureIsReturned) {
  WorkloadFactory factory(SweepDataset());
  auto points = MakePoints({4, 6, 8});
  points[2].config.num_candidate_events = 1;  // |E| < k
  for (size_t jobs : {1u, 0u}) {
    auto result = RunSweep(factory, points, {"grd", "top"}, jobs);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("at least k"),
              std::string::npos)
        << result.status().ToString();
  }
}

TEST(SweepTest, RepeatedSweepAggregatesMatchAcrossJobs) {
  WorkloadFactory factory(SweepDataset());
  auto serial = RunRepeatedSweep(factory, {5, 10}, KSweepConfig(),
                                 {"grd", "rand"}, 3, 17, /*jobs=*/1);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  auto parallel = RunRepeatedSweep(factory, {5, 10}, KSweepConfig(),
                                   {"grd", "rand"}, 3, 17, /*jobs=*/4);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ASSERT_EQ(serial->size(), parallel->size());
  for (size_t i = 0; i < serial->size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ((*serial)[i].x, (*parallel)[i].x);
    EXPECT_EQ((*serial)[i].solver, (*parallel)[i].solver);
    // Utility aggregates accumulate in the same order at every jobs
    // value, so the floating-point results are bitwise identical.
    EXPECT_EQ((*serial)[i].utility.mean, (*parallel)[i].utility.mean);
    EXPECT_EQ((*serial)[i].utility.stddev, (*parallel)[i].utility.stddev);
    EXPECT_EQ((*serial)[i].utility.count, (*parallel)[i].utility.count);
  }
}

}  // namespace
}  // namespace ses::exp
