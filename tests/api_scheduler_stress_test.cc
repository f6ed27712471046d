/// Concurrency stress / property suite for the api::Scheduler service
/// shell: admission control, priority lanes, and the multi-instance
/// session cache under many client threads. Runs under ASan and TSan in
/// CI with the fixed seed list below (INSTANTIATE_TEST_SUITE_P), so a
/// failure reproduces with `--gtest_filter` alone — no random state.
///
/// Pinned properties:
///  - no deadlock (the suite terminates) and every submitted request
///    gets exactly one response;
///  - kResourceExhausted appears only when the queue was configured
///    small, never on an unbounded scheduler;
///  - under a saturated 1-worker pool, a High request admitted after a
///    wall of Batch requests completes before (at least 6 of 8 of)
///    them, and High median queue wait <= Batch median queue wait;
///  - a queued request whose deadline already expired is dropped at
///    dequeue without ever reaching a solver, answered
///    kDeadlineExceeded, and never delays a live High request;
///  - scheduler metrics agree with observed behavior: the refusal
///    counter equals the observed kResourceExhausted responses, the
///    in-queue expiry counter equals the observed dequeue drops, and
///    per-status counters match the response tallies exactly;
///  - SolveBatch responses stay request-ordered and bit-identical
///    across worker counts and priority shuffles — and identical to a
///    direct core-solver run, so the (always-on) metrics
///    instrumentation provably never perturbs solver output;
///  - concurrent LoadInstance / solve-by-id / Drop churn is safe.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/scheduler.h"
#include "core/registry.h"
#include "core/validate.h"
#include "tests/test_util.h"

namespace ses::api {
namespace {

using Clock = std::chrono::steady_clock;

SolveRequest RequestFor(const std::string& solver, int64_t k = 5,
                        uint64_t seed = 1) {
  SolveRequest request;
  request.solver = solver;
  request.options.k = k;
  request.options.seed = seed;
  return request;
}

/// A request sized to run for minutes unless cancelled (exact at k=10
/// with no node budget; it polls the context every 256 nodes) — pins
/// the worker so everything submitted behind it queues deterministically.
SolveRequest BlockerRequest() {
  SolveRequest request = RequestFor("exact", 10);
  request.options.max_nodes = std::numeric_limits<uint64_t>::max();
  request.cancel = std::make_shared<core::CancelToken>();
  return request;
}

/// A bounded but non-trivial request (exact at k=3, about 12,700
/// search nodes): long enough that completion-order measurements dwarf
/// thread wake-up jitter, short enough for sanitizer CI.
SolveRequest ChunkyRequest(Priority priority, uint64_t seed) {
  SolveRequest request = RequestFor("exact", 3, seed);
  request.priority = priority;
  return request;
}

/// Spins until every admitted request has been picked up by a worker.
void WaitForDrainedQueue(const Scheduler& scheduler) {
  while (scheduler.queued_requests() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// --- Priority ordering under saturation ----------------------------------

// The acceptance pin: on a saturated 1-worker pool, a High-priority
// request admitted *after* 8 Batch requests completes before at least 6
// of them (the two-slop absorbs collector-thread wake-up jitter; the
// dispatch order itself is strict).
TEST(SchedulerPriorityTest, HighOvertakesBatchWallUnderSaturation) {
  const core::SesInstance instance = test::MakeMediumInstance();
  Scheduler scheduler(SchedulerOptions{.num_threads = 1});

  SolveRequest blocker = BlockerRequest();
  auto blocker_cancel = blocker.cancel;
  PendingSolve running = scheduler.Submit(instance, std::move(blocker));
  WaitForDrainedQueue(scheduler);

  constexpr size_t kBatchCount = 8;
  std::vector<PendingSolve> batch;
  for (size_t i = 0; i < kBatchCount; ++i) {
    batch.push_back(scheduler.Submit(
        instance, ChunkyRequest(Priority::kBatch, /*seed=*/i + 1)));
  }
  PendingSolve high = scheduler.Submit(
      instance, ChunkyRequest(Priority::kHigh, /*seed=*/99));

  // One collector thread per handle records when its response arrived.
  std::vector<Clock::time_point> batch_done(kBatchCount);
  std::vector<SolveResponse> batch_responses(kBatchCount);
  Clock::time_point high_done;
  SolveResponse high_response;
  std::vector<std::thread> collectors;
  collectors.reserve(kBatchCount + 1);
  for (size_t i = 0; i < kBatchCount; ++i) {
    collectors.emplace_back([&, i] {
      batch_responses[i] = batch[i].Get();
      batch_done[i] = Clock::now();
    });
  }
  collectors.emplace_back([&] {
    high_response = high.Get();
    high_done = Clock::now();
  });

  blocker_cancel->Cancel();
  for (std::thread& t : collectors) t.join();
  EXPECT_EQ(running.Get().status.code(), util::StatusCode::kCancelled);

  ASSERT_TRUE(high_response.status.ok());
  size_t finished_after_high = 0;
  for (size_t i = 0; i < kBatchCount; ++i) {
    ASSERT_TRUE(batch_responses[i].status.ok()) << i;
    if (batch_done[i] > high_done) ++finished_after_high;
    // The queue wait the responses report must agree with the ordering:
    // High was admitted last but started first.
    EXPECT_LT(high_response.queue_seconds,
              batch_responses[i].queue_seconds)
        << i;
  }
  EXPECT_GE(finished_after_high, 6u);
}

TEST(SchedulerPriorityTest, HighMedianQueueWaitAtMostBatchMedian) {
  const core::SesInstance instance = test::MakeMediumInstance();
  Scheduler scheduler(SchedulerOptions{.num_threads = 1});

  SolveRequest blocker = BlockerRequest();
  auto blocker_cancel = blocker.cancel;
  PendingSolve running = scheduler.Submit(instance, std::move(blocker));
  WaitForDrainedQueue(scheduler);

  // Saturation: Batch requests admitted first, High requests after —
  // yet every High must start (and therefore wait) ahead of every
  // Batch, which the per-response queue_seconds medians pin.
  constexpr size_t kPerLane = 6;
  std::vector<PendingSolve> batch;
  std::vector<PendingSolve> high;
  for (size_t i = 0; i < kPerLane; ++i) {
    batch.push_back(scheduler.Submit(
        instance, ChunkyRequest(Priority::kBatch, /*seed=*/i + 1)));
  }
  for (size_t i = 0; i < kPerLane; ++i) {
    high.push_back(scheduler.Submit(
        instance, ChunkyRequest(Priority::kHigh, /*seed=*/100 + i)));
  }
  blocker_cancel->Cancel();
  EXPECT_EQ(running.Get().status.code(), util::StatusCode::kCancelled);

  auto median_wait = [](std::vector<PendingSolve>& handles) {
    std::vector<double> waits;
    for (PendingSolve& handle : handles) {
      const SolveResponse response = handle.Get();
      EXPECT_TRUE(response.status.ok()) << response.status.ToString();
      waits.push_back(response.queue_seconds);
    }
    std::sort(waits.begin(), waits.end());
    return waits[waits.size() / 2];
  };
  const double high_median = median_wait(high);
  const double batch_median = median_wait(batch);
  EXPECT_LE(high_median, batch_median);
}

// --- Deadline-aware admission ---------------------------------------------

// The acceptance pin for expired-at-dequeue: already-expired Batch
// requests on a saturated 1-worker pool never reach a solver, are
// answered kDeadlineExceeded, and do not delay a live High request
// submitted after them. The metrics must agree: every drop is counted
// as deadline_expired_in_queue, not as a solver-run expiry.
TEST(SchedulerDeadlineQueueTest, ExpiredAtDequeueNeverReachesSolver) {
  const core::SesInstance instance = test::MakeMediumInstance();
  Scheduler scheduler(SchedulerOptions{.num_threads = 1});

  SolveRequest blocker = BlockerRequest();
  auto blocker_cancel = blocker.cancel;
  PendingSolve running = scheduler.Submit(instance, std::move(blocker));
  WaitForDrainedQueue(scheduler);

  // Dead on arrival: expired deadlines, queued behind the blocker. The
  // shared work counter proves no solver iteration ever ran for them.
  constexpr size_t kDead = 8;
  std::atomic<uint64_t> dead_work{0};
  std::vector<PendingSolve> dead;
  for (size_t i = 0; i < kDead; ++i) {
    SolveRequest request = ChunkyRequest(Priority::kBatch, /*seed=*/i + 1);
    request.deadline = core::Deadline::After(0.0);
    request.work_counter = &dead_work;
    dead.push_back(scheduler.Submit(instance, std::move(request)));
  }
  // A live High request submitted after the dead wall.
  PendingSolve high = scheduler.Submit(
      instance, ChunkyRequest(Priority::kHigh, /*seed=*/99));

  blocker_cancel->Cancel();
  EXPECT_EQ(running.Get().status.code(), util::StatusCode::kCancelled);

  const SolveResponse high_response = high.Get();
  ASSERT_TRUE(high_response.status.ok())
      << high_response.status.ToString();
  EXPECT_GT(high_response.utility, 0.0);

  for (size_t i = 0; i < kDead; ++i) {
    const SolveResponse response = dead[i].Get();
    EXPECT_EQ(response.status.code(),
              util::StatusCode::kDeadlineExceeded)
        << i;
    // Dropped at dequeue: no schedule, no solver wall-clock, no gain
    // evaluations, and the message names the queue as the place the
    // deadline died.
    EXPECT_TRUE(response.schedule.empty()) << i;
    EXPECT_EQ(response.wall_seconds, 0.0) << i;
    EXPECT_EQ(response.stats.gain_evaluations, 0u) << i;
    EXPECT_NE(response.status.message().find("queue"), std::string::npos)
        << response.status.ToString();
    // The dead Batch request cannot have delayed the High request: High
    // left the queue first.
    EXPECT_LE(high_response.queue_seconds, response.queue_seconds) << i;
  }
  EXPECT_EQ(dead_work.load(), 0u);

  const SchedulerMetrics metrics = scheduler.Metrics();
  EXPECT_EQ(metrics.deadline_expired_in_queue, kDead);
  EXPECT_EQ(metrics.deadline_expired, 0u);
  EXPECT_EQ(metrics.admitted, kDead + 2);  // blocker + dead wall + High
  EXPECT_EQ(metrics.completed, 1u);        // High
  EXPECT_EQ(metrics.cancelled, 1u);        // the blocker
  EXPECT_EQ(metrics.refused, 0u);

  // The histogram split: expired Batch waits land in
  // expired_queue_wait_seconds, never in the healthy queue_wait
  // histogram — the batch-lane p50/p99 stay untainted by the dead wall.
  const util::MetricsSnapshot snapshot =
      scheduler.metric_registry().Snapshot();
  const util::HistogramSample* batch_wait =
      snapshot.FindHistogram("scheduler.queue_wait_seconds.batch");
  const util::HistogramSample* batch_expired = snapshot.FindHistogram(
      "scheduler.expired_queue_wait_seconds.batch");
  ASSERT_NE(batch_wait, nullptr);
  ASSERT_NE(batch_expired, nullptr);
  EXPECT_EQ(batch_wait->count, 0u);
  EXPECT_EQ(batch_expired->count, kDead);
  // Requests that ran still observe into the healthy histogram: the
  // High request and the Normal blocker, one each.
  const util::HistogramSample* high_wait =
      snapshot.FindHistogram("scheduler.queue_wait_seconds.high");
  const util::HistogramSample* normal_wait =
      snapshot.FindHistogram("scheduler.queue_wait_seconds.normal");
  ASSERT_NE(high_wait, nullptr);
  ASSERT_NE(normal_wait, nullptr);
  EXPECT_EQ(high_wait->count, 1u);
  EXPECT_EQ(normal_wait->count, 1u);
  EXPECT_EQ(snapshot
                .FindHistogram("scheduler.expired_queue_wait_seconds.high")
                ->count,
            0u);
}

// --- Determinism regression ----------------------------------------------

// SolveBatch responses stay request-ordered and bit-identical across
// worker counts and priority shuffles: priorities and parallelism may
// only move *when* a request runs, never what it computes.
TEST(SchedulerDeterminismTest, BatchBitIdenticalAcrossThreadsAndPriorities) {
  const core::SesInstance instance = test::MakeMediumInstance();

  std::vector<SolveRequest> base;
  for (uint64_t seed : {1ull, 2ull}) {
    for (const char* name : {"grd", "lazy", "bestfit", "top", "rand"}) {
      base.push_back(RequestFor(name, 5, seed));
    }
  }

  Scheduler reference_scheduler(SchedulerOptions{.num_threads = 1});
  const std::vector<SolveResponse> reference =
      reference_scheduler.SolveBatch(instance, base);
  ASSERT_EQ(reference.size(), base.size());

  // Priority patterns: uniform lanes plus two index-keyed shuffles.
  const std::vector<std::function<Priority(size_t)>> patterns = {
      [](size_t) { return Priority::kNormal; },
      [](size_t i) { return static_cast<Priority>(i % 3); },
      [](size_t i) { return static_cast<Priority>(2 - i % 3); },
  };
  for (size_t num_threads : {1u, 4u}) {
    for (size_t p = 0; p < patterns.size(); ++p) {
      SCOPED_TRACE("threads=" + std::to_string(num_threads) +
                   " pattern=" + std::to_string(p));
      Scheduler scheduler(SchedulerOptions{.num_threads = num_threads});
      std::vector<SolveRequest> requests = base;
      for (size_t i = 0; i < requests.size(); ++i) {
        requests[i].priority = patterns[p](i);
      }
      const std::vector<SolveResponse> responses =
          scheduler.SolveBatch(instance, requests);
      ASSERT_EQ(responses.size(), reference.size());
      for (size_t i = 0; i < responses.size(); ++i) {
        ASSERT_TRUE(responses[i].status.ok()) << i;
        EXPECT_EQ(responses[i].solver, base[i].solver) << i;
        EXPECT_EQ(responses[i].schedule, reference[i].schedule) << i;
        EXPECT_EQ(responses[i].utility, reference[i].utility) << i;
      }
    }
  }

  // The id-keyed path computes the same bits as the by-reference path.
  Scheduler session_scheduler(SchedulerOptions{.num_threads = 4});
  ASSERT_TRUE(
      session_scheduler.LoadInstance("det", test::MakeMediumInstance())
          .ok());
  const std::vector<SolveResponse> by_id =
      session_scheduler.SolveBatch("det", base);
  ASSERT_EQ(by_id.size(), reference.size());
  for (size_t i = 0; i < by_id.size(); ++i) {
    ASSERT_TRUE(by_id[i].status.ok()) << i;
    EXPECT_EQ(by_id[i].schedule, reference[i].schedule) << i;
    EXPECT_EQ(by_id[i].utility, reference[i].utility) << i;
  }

  // Metrics instrumentation never perturbs solver output: the fully
  // instrumented api path matches a direct core-solver run (no
  // scheduler, no registry anywhere near it) bit for bit.
  for (size_t i = 0; i < base.size(); ++i) {
    SCOPED_TRACE("direct " + base[i].solver);
    auto solver = core::MakeSolver(base[i].solver);
    ASSERT_TRUE(solver.ok());
    auto direct = (*solver)->Solve(instance, base[i].options);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    EXPECT_EQ(direct->assignments, reference[i].schedule);
    EXPECT_EQ(direct->utility, reference[i].utility);
  }
}

// --- Multi-client churn ---------------------------------------------------

struct ChurnTally {
  std::atomic<size_t> submitted{0};
  std::atomic<size_t> responded{0};
  std::atomic<size_t> ok{0};
  std::atomic<size_t> deadline{0};
  std::atomic<size_t> cancelled{0};
  std::atomic<size_t> exhausted{0};
  std::atomic<size_t> unexpected{0};
};

/// N client threads hammer one scheduler with mixed priorities, random
/// deadlines, and random cancellations; every handle is collected
/// exactly once and every status must come from the allowed set.
void RunMixedChurn(Scheduler& scheduler, const core::SesInstance& instance,
                   uint64_t seed, ChurnTally& tally) {
  constexpr size_t kClients = 6;
  constexpr size_t kRequestsPerClient = 15;
  const std::vector<std::string> solvers{"grd", "lazy", "bestfit", "top",
                                         "rand"};

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937_64 rng(seed * 1000003 + c);
      for (size_t r = 0; r < kRequestsPerClient; ++r) {
        SolveRequest request =
            RequestFor(solvers[rng() % solvers.size()],
                       /*k=*/3 + static_cast<int64_t>(rng() % 5),
                       /*seed=*/rng());
        request.priority = static_cast<Priority>(rng() % 3);
        const uint64_t fate = rng() % 100;
        if (fate < 20) {
          request.deadline = core::Deadline::After(0.0);
        } else if (fate < 40) {
          request.deadline = core::Deadline::After(0.002);
        }
        const bool cancel_it = rng() % 100 < 20;
        PendingSolve pending = scheduler.Submit(instance, std::move(request));
        tally.submitted.fetch_add(1);
        if (cancel_it) pending.Cancel();

        const SolveResponse response = pending.Get();
        tally.responded.fetch_add(1);
        switch (response.status.code()) {
          case util::StatusCode::kOk:
            tally.ok.fetch_add(1);
            break;
          case util::StatusCode::kDeadlineExceeded:
            tally.deadline.fetch_add(1);
            break;
          case util::StatusCode::kCancelled:
            tally.cancelled.fetch_add(1);
            break;
          case util::StatusCode::kResourceExhausted:
            tally.exhausted.fetch_add(1);
            break;
          default:
            tally.unexpected.fetch_add(1);
            ADD_FAILURE() << "unexpected status: "
                          << response.status.ToString();
        }
        if (response.has_schedule()) {
          EXPECT_TRUE(
              core::ValidateAssignments(instance, response.schedule).ok());
        } else {
          EXPECT_TRUE(response.schedule.empty());
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
}

class SchedulerStressTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SchedulerStressTest, BoundedQueueChurnYieldsExactlyOneResponseEach) {
  const core::SesInstance instance = test::MakeMediumInstance(GetParam());
  SchedulerOptions options;
  options.num_threads = 3;
  options.max_queued_requests = 8;  // small on purpose: refusals allowed
  Scheduler scheduler(options);

  ChurnTally tally;
  RunMixedChurn(scheduler, instance, GetParam(), tally);

  // Exactly one response per submission — no lost work, no duplicates.
  EXPECT_EQ(tally.submitted.load(), tally.responded.load());
  EXPECT_EQ(tally.submitted.load(),
            tally.ok.load() + tally.deadline.load() +
                tally.cancelled.load() + tally.exhausted.load());
  EXPECT_EQ(tally.unexpected.load(), 0u);
  // Everything admitted has drained (also: the destructor below would
  // deadlock, not pass, if a request were stuck).
  WaitForDrainedQueue(scheduler);

  // The metrics must agree with the observed behavior, exactly: the
  // refusal counter is the number of kResourceExhausted responses the
  // clients saw, per-status counters match the response tallies, and a
  // deadline response came from either a solver-run expiry or an
  // in-queue drop — nothing double-counted, nothing lost.
  const SchedulerMetrics metrics = scheduler.Metrics();
  EXPECT_EQ(metrics.refused, tally.exhausted.load());
  EXPECT_EQ(metrics.admitted,
            tally.submitted.load() - tally.exhausted.load());
  EXPECT_EQ(metrics.completed, tally.ok.load());
  EXPECT_EQ(metrics.cancelled, tally.cancelled.load());
  EXPECT_EQ(metrics.deadline_expired + metrics.deadline_expired_in_queue,
            tally.deadline.load());
  EXPECT_EQ(metrics.validation_failed, 0u);
  for (size_t lane = 0; lane < kNumPriorityLanes; ++lane) {
    EXPECT_EQ(metrics.queue_depth[lane], 0) << lane;
  }
}

TEST_P(SchedulerStressTest, UnboundedQueueNeverRefuses) {
  const core::SesInstance instance = test::MakeMediumInstance(GetParam());
  Scheduler scheduler(SchedulerOptions{.num_threads = 3});  // no bound

  ChurnTally tally;
  RunMixedChurn(scheduler, instance, GetParam(), tally);

  EXPECT_EQ(tally.submitted.load(), tally.responded.load());
  // kResourceExhausted may only appear when a bound was configured.
  EXPECT_EQ(tally.exhausted.load(), 0u);
  EXPECT_EQ(tally.unexpected.load(), 0u);
  // ...and the refusal counter agrees: an unbounded queue never refuses.
  const SchedulerMetrics metrics = scheduler.Metrics();
  EXPECT_EQ(metrics.refused, 0u);
  EXPECT_EQ(metrics.admitted, tally.submitted.load());
  EXPECT_EQ(metrics.completed, tally.ok.load());
}

TEST_P(SchedulerStressTest, ConcurrentSessionCacheChurnIsSafe) {
  Scheduler scheduler(SchedulerOptions{.num_threads = 2});
  constexpr size_t kLoaders = 4;
  constexpr size_t kRounds = 8;

  std::vector<std::thread> loaders;
  loaders.reserve(kLoaders);
  for (size_t t = 0; t < kLoaders; ++t) {
    loaders.emplace_back([&, t] {
      std::mt19937_64 rng(GetParam() * 7919 + t);
      for (size_t round = 0; round < kRounds; ++round) {
        const std::string name =
            "t" + std::to_string(t) + "-r" + std::to_string(round);
        ASSERT_TRUE(
            scheduler
                .LoadInstance(name, test::MakeMediumInstance(
                                        GetParam() + t * 100 + round))
                .ok());
        PendingSolve pending =
            scheduler.Submit(name, RequestFor("rand", 4, rng()));
        if (rng() % 2 == 0) {
          // Drop before collecting: the in-flight solve pinned it.
          ASSERT_TRUE(scheduler.Drop(name).ok());
          EXPECT_TRUE(pending.Get().status.ok());
        } else {
          EXPECT_TRUE(pending.Get().status.ok());
          ASSERT_TRUE(scheduler.Drop(name).ok());
        }
      }
    });
  }
  // A reader races the loaders: listing and solving against names that
  // may vanish at any moment must yield OK or NotFound, nothing else.
  std::thread reader([&] {
    std::mt19937_64 rng(GetParam());
    for (size_t i = 0; i < 2 * kLoaders * kRounds; ++i) {
      const std::string name = "t" + std::to_string(rng() % kLoaders) +
                               "-r" + std::to_string(rng() % kRounds);
      const SolveResponse response =
          scheduler.Solve(name, RequestFor("rand", 3, rng()));
      EXPECT_TRUE(response.status.ok() ||
                  response.status.code() == util::StatusCode::kNotFound)
          << response.status.ToString();
      (void)scheduler.LoadedInstances();
    }
  });
  for (std::thread& loader : loaders) loader.join();
  reader.join();
  EXPECT_TRUE(scheduler.LoadedInstances().empty());
}

// Fixed seed list (also what CI runs): failures reproduce with
// --gtest_filter=*Seeds/SchedulerStressTest.*/<index> and nothing else.
INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerStressTest,
                         ::testing::Values(7ull, 19ull, 33ull));

}  // namespace
}  // namespace ses::api
