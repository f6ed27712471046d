/// Lifecycle tests of api::Scheduler's multi-instance session cache:
/// LoadInstance (owning and shared/borrowed), id-keyed Solve / Submit /
/// SolveBatch, LoadedInstances, Drop — including the contract the
/// serving layer leans on: Drop while a solve against that instance is
/// in flight neither crashes nor invalidates that solve's response —
/// and the session score grid: id-keyed greedy requests after the first
/// complete fill borrow it and still answer field for field like a
/// by-reference request, which fills its own.

#include <atomic>
#include <bit>
#include <chrono>
#include <limits>
#include <memory>
#include <thread>

#include <gtest/gtest.h>

#include "api/scheduler.h"
#include "core/validate.h"
#include "tests/test_util.h"

namespace ses::api {
namespace {

SolveRequest RequestFor(const std::string& solver, int64_t k = 5,
                        uint64_t seed = 1) {
  SolveRequest request;
  request.solver = solver;
  request.options.k = k;
  request.options.seed = seed;
  return request;
}

/// Field-by-field equality: status, schedule, utility bits and every
/// work counter. Only the wall-clock fields may differ.
void ExpectSameResponse(const SolveResponse& actual,
                        const SolveResponse& expected) {
  EXPECT_EQ(actual.status.code(), expected.status.code())
      << actual.status.ToString();
  EXPECT_EQ(actual.solver, expected.solver);
  EXPECT_EQ(actual.schedule, expected.schedule);
  EXPECT_EQ(std::bit_cast<uint64_t>(actual.utility),
            std::bit_cast<uint64_t>(expected.utility));
  EXPECT_EQ(actual.stats.gain_evaluations, expected.stats.gain_evaluations);
  EXPECT_EQ(actual.stats.pops, expected.stats.pops);
  EXPECT_EQ(actual.stats.updates, expected.stats.updates);
  EXPECT_EQ(actual.stats.nodes, expected.stats.nodes);
  EXPECT_EQ(actual.stats.moves_tried, expected.stats.moves_tried);
}

// Also on twins (events sharing one interest row), where a fill scores
// fewer profiles than events: a borrowed grid must report the fill's
// evaluation count, not one per cell.
TEST(SessionCacheTest, LoadSolveByIdMatchesSolveByReference) {
  for (const bool twins : {false, true}) {
    test::RandomInstanceConfig config = test::MediumInstanceConfig();
    config.twins = twins;
    const core::SesInstance reference = test::MakeRandomInstance(config);
    Scheduler scheduler(SchedulerOptions{.num_threads = 2});
    for (const char* solver : {"grd", "lazy", "top", "bestfit", "rand"}) {
      const bool reads_grid = std::string(solver) != "rand";
      for (int64_t threads : {1, 0, 3}) {
        SCOPED_TRACE(std::string(solver) + " threads=" +
                     std::to_string(threads) + (twins ? " twins" : ""));
        // A fresh session per combination, so its first request fills.
        // Owning load: an identically-built copy moves into the scheduler.
        ASSERT_TRUE(scheduler
                        .LoadInstance("meetup", test::MakeRandomInstance(config))
                        .ok());
        EXPECT_EQ(scheduler.LoadedInstances(),
                  std::vector<std::string>{"meetup"});
        SolveRequest request = RequestFor(solver);
        request.options.threads = threads;
        const SolveResponse by_ref = scheduler.Solve(reference, request);
        ASSERT_TRUE(by_ref.status.ok()) << by_ref.status.ToString();

        const uint64_t reused = scheduler.Metrics().score_grid_reused;
        ExpectSameResponse(scheduler.Solve("meetup", request), by_ref);
        EXPECT_EQ(scheduler.Metrics().score_grid_reused, reused);
        ExpectSameResponse(scheduler.Solve("meetup", request), by_ref);
        ExpectSameResponse(scheduler.Submit("meetup", request).Get(), by_ref);
        EXPECT_EQ(scheduler.Metrics().score_grid_reused,
                  reused + (reads_grid ? 2 : 0));
        ASSERT_TRUE(scheduler.Drop("meetup").ok());
      }
    }
  }
}

TEST(SessionCacheTest, WarmStartedRequestNeverBorrows) {
  const core::SesInstance reference = test::MakeMediumInstance();
  Scheduler scheduler(SchedulerOptions{.num_threads = 1});
  ASSERT_TRUE(
      scheduler.LoadInstance("meetup", test::MakeMediumInstance()).ok());
  // Publish the session grid, then seed requests with part of a schedule.
  const SolveResponse seed = scheduler.Solve("meetup", RequestFor("grd"));
  ASSERT_TRUE(seed.status.ok()) << seed.status.ToString();
  ASSERT_GE(seed.schedule.size(), 2u);

  for (const char* solver : {"grd", "lazy", "top", "bestfit"}) {
    SCOPED_TRACE(solver);
    SolveRequest request = RequestFor(solver);
    request.options.warm_start.assign(seed.schedule.begin(),
                                      seed.schedule.begin() + 2);
    const SolveResponse by_ref = scheduler.Solve(reference, request);
    ASSERT_TRUE(by_ref.status.ok()) << by_ref.status.ToString();
    ExpectSameResponse(scheduler.Solve("meetup", request), by_ref);
    EXPECT_EQ(scheduler.Metrics().score_grid_reused, 0u);
  }
}

TEST(SessionCacheTest, InterruptedFillIsNotPublished) {
  const core::SesInstance reference = test::MakeMediumInstance();
  Scheduler scheduler(SchedulerOptions{.num_threads = 1});
  ASSERT_TRUE(
      scheduler.LoadInstance("meetup", test::MakeMediumInstance()).ok());

  // Two first requests whose fills stop at their first poll.
  SolveRequest expired = RequestFor("grd");
  expired.deadline = core::Deadline::After(0.0);
  EXPECT_EQ(scheduler.Solve("meetup", expired).status.code(),
            util::StatusCode::kDeadlineExceeded);
  SolveRequest cancelled = RequestFor("grd");
  cancelled.cancel = std::make_shared<core::CancelToken>();
  cancelled.cancel->Cancel();
  EXPECT_EQ(scheduler.Solve("meetup", cancelled).status.code(),
            util::StatusCode::kCancelled);
  EXPECT_EQ(scheduler.Metrics().score_grid_reused, 0u);

  // Neither published: the next request fills, the one after borrows.
  const SolveResponse by_ref = scheduler.Solve(reference, RequestFor("grd"));
  ASSERT_TRUE(by_ref.status.ok()) << by_ref.status.ToString();
  ExpectSameResponse(scheduler.Solve("meetup", RequestFor("grd")), by_ref);
  EXPECT_EQ(scheduler.Metrics().score_grid_reused, 0u);
  ExpectSameResponse(scheduler.Solve("meetup", RequestFor("grd")), by_ref);
  EXPECT_EQ(scheduler.Metrics().score_grid_reused, 1u);
}

TEST(SessionCacheTest, ReloadUnderSameNameGetsFreshGrid) {
  Scheduler scheduler(SchedulerOptions{.num_threads = 1});
  ASSERT_TRUE(scheduler.LoadInstance("a", test::MakeMediumInstance(1)).ok());
  ASSERT_TRUE(scheduler.Solve("a", RequestFor("grd")).status.ok());
  ASSERT_TRUE(scheduler.Drop("a").ok());

  ASSERT_TRUE(scheduler.LoadInstance("a", test::MakeMediumInstance(7)).ok());
  const core::SesInstance reference = test::MakeMediumInstance(7);
  ExpectSameResponse(scheduler.Solve("a", RequestFor("grd")),
                     scheduler.Solve(reference, RequestFor("grd")));
  EXPECT_EQ(scheduler.Metrics().score_grid_reused, 0u);
}

TEST(SessionCacheTest, ConcurrentFirstFillsAllMatchReference) {
  const core::SesInstance reference = test::MakeMediumInstance();
  Scheduler scheduler(SchedulerOptions{.num_threads = 4});
  ASSERT_TRUE(
      scheduler.LoadInstance("meetup", test::MakeMediumInstance()).ok());
  // Several requests may fill at once; one offer wins, and every
  // response, filled or borrowed, is the same.
  const std::vector<SolveResponse> responses = scheduler.SolveBatch(
      "meetup", std::vector<SolveRequest>(8, RequestFor("grd")));
  const SolveResponse by_ref = scheduler.Solve(reference, RequestFor("grd"));
  ASSERT_TRUE(by_ref.status.ok()) << by_ref.status.ToString();
  for (const SolveResponse& response : responses) {
    ExpectSameResponse(response, by_ref);
  }
}

TEST(SessionCacheTest, DoubleLoadIsAlreadyExists) {
  Scheduler scheduler(SchedulerOptions{.num_threads = 1});
  ASSERT_TRUE(scheduler.LoadInstance("a", test::MakeMediumInstance()).ok());
  const util::Status again =
      scheduler.LoadInstance("a", test::MakeMediumInstance(7));
  EXPECT_EQ(again.code(), util::StatusCode::kAlreadyExists);
  EXPECT_NE(again.message().find("'a'"), std::string::npos)
      << again.message();
  // The original stays loaded and usable.
  EXPECT_TRUE(scheduler.Solve("a", RequestFor("rand")).status.ok());
  // Drop + reload is the sanctioned replacement path.
  ASSERT_TRUE(scheduler.Drop("a").ok());
  EXPECT_TRUE(scheduler.LoadInstance("a", test::MakeMediumInstance(7)).ok());
}

TEST(SessionCacheTest, UnknownIdIsNotFoundOnEveryEntryPoint) {
  Scheduler scheduler(SchedulerOptions{.num_threads = 1});

  const SolveResponse solve =
      scheduler.Solve("ghost", RequestFor("grd"));
  EXPECT_EQ(solve.status.code(), util::StatusCode::kNotFound);
  EXPECT_NE(solve.status.message().find("'ghost'"), std::string::npos);

  PendingSolve pending = scheduler.Submit("ghost", RequestFor("grd"));
  EXPECT_TRUE(pending.Ready());  // resolves without queueing work
  EXPECT_EQ(pending.Get().status.code(), util::StatusCode::kNotFound);

  const std::vector<SolveResponse> batch = scheduler.SolveBatch(
      "ghost", {RequestFor("grd"), RequestFor("rand")});
  ASSERT_EQ(batch.size(), 2u);
  for (const SolveResponse& response : batch) {
    EXPECT_EQ(response.status.code(), util::StatusCode::kNotFound);
    // The response still echoes which solver the slot asked for.
    EXPECT_FALSE(response.solver.empty());
  }

  EXPECT_EQ(scheduler.Drop("ghost").code(), util::StatusCode::kNotFound);
}

TEST(SessionCacheTest, DropDuringInFlightSolveIsSafe) {
  Scheduler scheduler(SchedulerOptions{.num_threads = 1});
  ASSERT_TRUE(
      scheduler.LoadInstance("live", test::MakeMediumInstance()).ok());

  // A long cancellable run against the loaded instance; the work
  // counter proves the solver is actually executing before the Drop.
  SolveRequest request = RequestFor("exact", 10);
  request.options.max_nodes = std::numeric_limits<uint64_t>::max();
  std::atomic<uint64_t> progress{0};
  request.work_counter = &progress;
  PendingSolve pending = scheduler.Submit("live", std::move(request));
  while (progress.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Drop while the solve runs: the map entry goes away immediately...
  ASSERT_TRUE(scheduler.Drop("live").ok());
  EXPECT_TRUE(scheduler.LoadedInstances().empty());
  EXPECT_EQ(scheduler.Solve("live", RequestFor("grd")).status.code(),
            util::StatusCode::kNotFound);

  // ...but the in-flight solve pinned the instance and must finish with
  // a valid response against it.
  pending.Cancel();
  const SolveResponse response = pending.Get();
  EXPECT_EQ(response.status.code(), util::StatusCode::kCancelled);
  EXPECT_TRUE(response.has_schedule());
  const core::SesInstance reference = test::MakeMediumInstance();
  EXPECT_TRUE(
      core::ValidateAssignments(reference, response.schedule).ok());
}

TEST(SessionCacheTest, BorrowedSharedPtrLoadSolvesWithoutCopy) {
  const core::SesInstance owned = test::MakeMediumInstance();
  Scheduler scheduler(SchedulerOptions{.num_threads = 1});
  // Non-owning alias: the test owns the instance; the scheduler only
  // references it (the caller guarantees lifetime — see LoadInstance).
  ASSERT_TRUE(
      scheduler.LoadInstance("borrowed", BorrowInstance(owned)).ok());
  const SolveResponse by_id =
      scheduler.Solve("borrowed", RequestFor("grd"));
  const SolveResponse by_ref = scheduler.Solve(owned, RequestFor("grd"));
  ASSERT_TRUE(by_id.status.ok());
  EXPECT_EQ(by_id.schedule, by_ref.schedule);
  EXPECT_EQ(by_id.utility, by_ref.utility);
  ASSERT_TRUE(scheduler.Drop("borrowed").ok());
}

TEST(SessionCacheTest, NullSharedPtrLoadIsInvalidArgument) {
  Scheduler scheduler(SchedulerOptions{.num_threads = 1});
  EXPECT_EQ(scheduler
                .LoadInstance("null",
                              std::shared_ptr<const core::SesInstance>())
                .code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_TRUE(scheduler.LoadedInstances().empty());
}

TEST(SessionCacheTest, ManyInstancesSolveAgainstTheRightOne) {
  Scheduler scheduler(SchedulerOptions{.num_threads = 2});
  // Distinct seeds produce distinct instances; the id-keyed responses
  // must match per-seed references, proving no cross-instance mixups.
  const std::vector<uint64_t> seeds{3, 11, 29};
  for (uint64_t seed : seeds) {
    ASSERT_TRUE(scheduler
                    .LoadInstance("seed-" + std::to_string(seed),
                                  test::MakeMediumInstance(seed))
                    .ok());
  }
  EXPECT_EQ(scheduler.LoadedInstances().size(), seeds.size());
  for (uint64_t seed : seeds) {
    SCOPED_TRACE(seed);
    const core::SesInstance reference = test::MakeMediumInstance(seed);
    const SolveResponse by_id =
        scheduler.Solve("seed-" + std::to_string(seed), RequestFor("grd"));
    const SolveResponse by_ref =
        scheduler.Solve(reference, RequestFor("grd"));
    ASSERT_TRUE(by_id.status.ok());
    EXPECT_EQ(by_id.schedule, by_ref.schedule);
    EXPECT_EQ(by_id.utility, by_ref.utility);
  }
}

}  // namespace
}  // namespace ses::api
