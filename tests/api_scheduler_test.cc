#include "api/scheduler.h"

#include <atomic>
#include <chrono>
#include <limits>
#include <thread>

#include <gtest/gtest.h>

#include "core/greedy.h"
#include "core/validate.h"
#include "tests/test_util.h"

namespace ses::api {
namespace {

core::SesInstance MediumInstance(uint64_t seed = 42) {
  // Shared fixture preset (tests/test_util.h) — also used by the
  // session-cache and stress suites.
  return test::MakeMediumInstance(seed);
}

SolveRequest RequestFor(const std::string& solver, int64_t k = 5,
                        uint64_t seed = 1) {
  SolveRequest request;
  request.solver = solver;
  request.options.k = k;
  request.options.seed = seed;
  return request;
}

// --- Up-front validation -------------------------------------------------

TEST(SchedulerValidateTest, UnknownSolverIsNotFoundAndListsCatalog) {
  const core::SesInstance instance = MediumInstance();
  Scheduler scheduler(SchedulerOptions{.num_threads = 1});
  const util::Status status =
      scheduler.Validate(instance, RequestFor("no-such-solver"));
  EXPECT_EQ(status.code(), util::StatusCode::kNotFound);
  // The message must name the valid choices.
  for (const std::string& name : ListSolvers()) {
    EXPECT_NE(status.message().find(name), std::string::npos) << name;
  }
}

TEST(SchedulerValidateTest, RejectsInfeasibleK) {
  const core::SesInstance instance = MediumInstance();
  Scheduler scheduler(SchedulerOptions{.num_threads = 1});
  EXPECT_EQ(scheduler.Validate(instance, RequestFor("grd", 0)).code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(scheduler.Validate(instance, RequestFor("grd", 10000)).code(),
            util::StatusCode::kInvalidArgument);
}

TEST(SchedulerValidateTest, RejectsBadWarmStart) {
  const core::SesInstance instance = MediumInstance();
  Scheduler scheduler(SchedulerOptions{.num_threads = 1});
  SolveRequest request = RequestFor("grd", 3);
  // Out-of-range event index can never be part of a feasible schedule.
  request.options.warm_start.push_back(
      {/*event=*/instance.num_events() + 7, /*interval=*/0});
  EXPECT_FALSE(scheduler.Validate(instance, request).ok());
}

// Two events that together exceed theta by 5e-10, which
// ValidateAssignments' 1e-9 slack lets through: Validate replays the
// warm start strictly, so the request is refused before admission.
TEST(SchedulerValidateTest, RejectsNearThetaWarmStartBeforeAdmission) {
  core::InstanceBuilder builder;
  builder.SetNumUsers(4).SetNumIntervals(2).SetTheta(1.0).SetSigma(
      std::make_shared<core::HashUniformSigma>(1));
  builder.AddEvent(/*location=*/0, /*required_resources=*/0.5 + 2.5e-10,
                   {{0u, 0.5f}});
  builder.AddEvent(/*location=*/1, /*required_resources=*/0.5 + 2.5e-10,
                   {{1u, 0.5f}});
  auto instance = builder.Build();
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();
  SolveRequest request = RequestFor("grd", 2);
  request.options.warm_start = {{0, 0}, {1, 0}};

  Scheduler scheduler(SchedulerOptions{.num_threads = 1});
  EXPECT_EQ(scheduler.Validate(*instance, request).code(),
            util::StatusCode::kInvalidArgument);
  PendingSolve pending = scheduler.Submit(*instance, request);
  EXPECT_EQ(pending.Get().status.code(), util::StatusCode::kInvalidArgument);
  const SchedulerMetrics metrics = scheduler.Metrics();
  EXPECT_EQ(metrics.admitted, 0u);
  EXPECT_EQ(metrics.validation_failed, 1u);
}

TEST(SchedulerSolveTest, UnknownSolverResponseCarriesError) {
  const core::SesInstance instance = MediumInstance();
  Scheduler scheduler(SchedulerOptions{.num_threads = 1});
  const SolveResponse response =
      scheduler.Solve(instance, RequestFor("bogus"));
  EXPECT_EQ(response.status.code(), util::StatusCode::kNotFound);
  EXPECT_FALSE(response.has_schedule());
  EXPECT_TRUE(response.schedule.empty());
}

// --- Synchronous solve ---------------------------------------------------

TEST(SchedulerSolveTest, SolvesAndReportsUtility) {
  const core::SesInstance instance = MediumInstance();
  Scheduler scheduler(SchedulerOptions{.num_threads = 1});
  const SolveResponse response =
      scheduler.Solve(instance, RequestFor("grd"));
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_TRUE(response.has_schedule());
  EXPECT_EQ(response.schedule.size(), 5u);
  EXPECT_GT(response.utility, 0.0);
  EXPECT_EQ(response.solver, "grd");
  EXPECT_TRUE(
      core::ValidateAssignments(instance, response.schedule, 5).ok());
}

// --- Deadlines -----------------------------------------------------------

TEST(SchedulerDeadlineTest, ZeroBudgetReturnsFeasiblePartialEverySolver) {
  const core::SesInstance instance = MediumInstance();
  Scheduler scheduler(SchedulerOptions{.num_threads = 1});
  for (const std::string& name : ListSolvers()) {
    SCOPED_TRACE(name);
    SolveRequest request = RequestFor(name);
    request.deadline = core::Deadline::After(0.0);
    const SolveResponse response = scheduler.Solve(instance, request);
    EXPECT_EQ(response.status.code(),
              util::StatusCode::kDeadlineExceeded);
    EXPECT_TRUE(response.has_schedule());
    // Whatever was assembled before the deadline must be feasible (an
    // empty schedule is fine).
    EXPECT_TRUE(
        core::ValidateAssignments(instance, response.schedule).ok());
    EXPECT_LE(response.schedule.size(), 5u);
  }
}

TEST(SchedulerDeadlineTest, UnlimitedDeadlineNeverExpires) {
  EXPECT_FALSE(core::Deadline().Expired());
  EXPECT_FALSE(core::Deadline::Unlimited().Expired());
  EXPECT_TRUE(core::Deadline::After(0.0).Expired());
  EXPECT_TRUE(core::Deadline::After(-1.0).Expired());
}

// --- Cancellation --------------------------------------------------------

TEST(SchedulerCancelTest, PreCancelledTokenReturnsCancelled) {
  const core::SesInstance instance = MediumInstance();
  Scheduler scheduler(SchedulerOptions{.num_threads = 1});
  for (const std::string& name : ListSolvers()) {
    SCOPED_TRACE(name);
    SolveRequest request = RequestFor(name);
    request.cancel = std::make_shared<core::CancelToken>();
    request.cancel->Cancel();
    const SolveResponse response = scheduler.Solve(instance, request);
    EXPECT_EQ(response.status.code(), util::StatusCode::kCancelled);
    EXPECT_TRUE(response.has_schedule());
    EXPECT_TRUE(
        core::ValidateAssignments(instance, response.schedule).ok());
  }
}

TEST(SchedulerCancelTest, CancelMidSolveThroughPendingSolve) {
  const core::SesInstance instance = MediumInstance();
  Scheduler scheduler(SchedulerOptions{.num_threads = 1});
  // A branch-and-bound run sized to take minutes unless cancelled: the
  // test passes quickly precisely because cancellation interrupts it.
  SolveRequest request = RequestFor("exact", 10);
  request.options.max_nodes = std::numeric_limits<uint64_t>::max();
  PendingSolve pending = scheduler.Submit(instance, std::move(request));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  pending.Cancel();
  const SolveResponse response = pending.Get();
  EXPECT_EQ(response.status.code(), util::StatusCode::kCancelled);
  EXPECT_TRUE(response.has_schedule());
  EXPECT_TRUE(
      core::ValidateAssignments(instance, response.schedule).ok());
}

// --- Async submission ----------------------------------------------------

TEST(SchedulerSubmitTest, InvalidRequestResolvesImmediately) {
  const core::SesInstance instance = MediumInstance();
  Scheduler scheduler(SchedulerOptions{.num_threads = 1});
  PendingSolve pending =
      scheduler.Submit(instance, RequestFor("not-a-solver"));
  const SolveResponse response = pending.Get();
  EXPECT_EQ(response.status.code(), util::StatusCode::kNotFound);
}

TEST(SchedulerSubmitTest, ResolvesWithSameResultAsSyncSolve) {
  const core::SesInstance instance = MediumInstance();
  Scheduler scheduler(SchedulerOptions{.num_threads = 2});
  const SolveResponse sync =
      scheduler.Solve(instance, RequestFor("lazy"));
  PendingSolve pending = scheduler.Submit(instance, RequestFor("lazy"));
  const SolveResponse async = pending.Get();
  ASSERT_TRUE(sync.status.ok());
  ASSERT_TRUE(async.status.ok());
  EXPECT_EQ(sync.schedule, async.schedule);
  EXPECT_EQ(sync.utility, async.utility);
}

// --- Batch submission ----------------------------------------------------

TEST(SchedulerBatchTest, DeterministicOrderUnderManyWorkers) {
  const core::SesInstance instance = MediumInstance();
  // jobs > 1: completion order is up to the pool, result order is not.
  Scheduler scheduler(SchedulerOptions{.num_threads = 4});

  std::vector<SolveRequest> requests;
  const std::vector<std::string> names{"grd", "lazy", "bestfit", "top",
                                       "rand"};
  for (uint64_t seed : {1ull, 2ull}) {
    for (const std::string& name : names) {
      requests.push_back(RequestFor(name, 5, seed));
    }
  }

  const std::vector<SolveResponse> batch =
      scheduler.SolveBatch(instance, requests);
  ASSERT_EQ(batch.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_TRUE(batch[i].status.ok()) << batch[i].status.ToString();
    // Responses come back in request order...
    EXPECT_EQ(batch[i].solver, requests[i].solver);
    // ...and match a synchronous run of the same request bitwise.
    const SolveResponse solo = scheduler.Solve(instance, requests[i]);
    EXPECT_EQ(batch[i].schedule, solo.schedule);
    EXPECT_EQ(batch[i].utility, solo.utility);
  }

  // A rerun of the same batch is reproducible.
  const std::vector<SolveResponse> again =
      scheduler.SolveBatch(instance, requests);
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(batch[i].schedule, again[i].schedule);
    EXPECT_EQ(batch[i].utility, again[i].utility);
  }
}

TEST(SchedulerBatchTest, InvalidRequestFailsOnlyItsSlot) {
  const core::SesInstance instance = MediumInstance();
  Scheduler scheduler(SchedulerOptions{.num_threads = 2});
  const std::vector<SolveResponse> responses = scheduler.SolveBatch(
      instance, {RequestFor("grd"), RequestFor("bogus"), RequestFor("rand")});
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_TRUE(responses[0].status.ok());
  EXPECT_EQ(responses[1].status.code(), util::StatusCode::kNotFound);
  EXPECT_TRUE(responses[2].status.ok());
}

// --- Admission control ---------------------------------------------------

/// A request sized to run for minutes unless cancelled (exact at k=10
/// with no node budget; it polls the context every 256 nodes): the tool
/// for keeping a worker provably busy while the queue is inspected.
SolveRequest BlockerRequest() {
  SolveRequest request = RequestFor("exact", 10);
  request.options.max_nodes = std::numeric_limits<uint64_t>::max();
  request.cancel = std::make_shared<core::CancelToken>();
  return request;
}

/// Spins until the scheduler's dispatch queue is empty (every admitted
/// request has been picked up by a worker).
void WaitForDrainedQueue(const Scheduler& scheduler) {
  while (scheduler.queued_requests() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(SchedulerAdmissionTest, OverflowFailsFastWithResourceExhausted) {
  const core::SesInstance instance = MediumInstance();
  SchedulerOptions options;
  options.num_threads = 1;
  options.max_queued_requests = 2;
  Scheduler scheduler(options);
  EXPECT_EQ(scheduler.max_queued_requests(), 2u);

  // Occupy the only worker, then wait until the blocker has actually
  // been dequeued so the two admissions below are exactly the capacity.
  SolveRequest blocker = BlockerRequest();
  auto blocker_cancel = blocker.cancel;
  PendingSolve running = scheduler.Submit(instance, std::move(blocker));
  WaitForDrainedQueue(scheduler);

  PendingSolve queued_a = scheduler.Submit(instance, RequestFor("rand"));
  PendingSolve queued_b = scheduler.Submit(instance, RequestFor("rand"));
  EXPECT_EQ(scheduler.queued_requests(), 2u);

  // The queue is full: the refusal must resolve immediately (fail-fast,
  // no blocking) with a message reporting depth and limit.
  PendingSolve refused = scheduler.Submit(instance, RequestFor("grd"));
  EXPECT_TRUE(refused.Ready());
  const SolveResponse refusal = refused.Get();
  EXPECT_EQ(refusal.status.code(), util::StatusCode::kResourceExhausted);
  EXPECT_NE(refusal.status.message().find("2 of 2"), std::string::npos)
      << refusal.status.message();
  EXPECT_FALSE(refusal.has_schedule());

  // A refusal loses nothing that was admitted: unblock and collect.
  blocker_cancel->Cancel();
  EXPECT_EQ(running.Get().status.code(), util::StatusCode::kCancelled);
  EXPECT_TRUE(queued_a.Get().status.ok());
  EXPECT_TRUE(queued_b.Get().status.ok());
  EXPECT_EQ(scheduler.queued_requests(), 0u);
}

TEST(SchedulerAdmissionTest, BatchOverflowFailsOnlyTheOverflowedSlots) {
  const core::SesInstance instance = MediumInstance();
  SchedulerOptions options;
  options.num_threads = 1;
  options.max_queued_requests = 3;
  Scheduler scheduler(options);

  SolveRequest blocker = BlockerRequest();
  auto blocker_cancel = blocker.cancel;
  PendingSolve running = scheduler.Submit(instance, std::move(blocker));
  WaitForDrainedQueue(scheduler);

  // Six requests against three slots: the first three are admitted, the
  // rest resolve as per-slot kResourceExhausted responses in order.
  std::vector<SolveRequest> requests;
  for (int i = 0; i < 6; ++i) requests.push_back(RequestFor("rand"));
  std::thread unblock([&] {
    // SolveBatch blocks collecting responses; release the worker once
    // the batch has had time to stage its submissions.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    blocker_cancel->Cancel();
  });
  const std::vector<SolveResponse> responses =
      scheduler.SolveBatch(instance, requests);
  unblock.join();
  ASSERT_EQ(responses.size(), 6u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(responses[i].status.ok()) << i;
  }
  for (int i = 3; i < 6; ++i) {
    EXPECT_EQ(responses[i].status.code(),
              util::StatusCode::kResourceExhausted)
        << i;
  }
  EXPECT_EQ(running.Get().status.code(), util::StatusCode::kCancelled);
}

TEST(SchedulerAdmissionTest, UnboundedByDefault) {
  const core::SesInstance instance = MediumInstance();
  Scheduler scheduler(SchedulerOptions{.num_threads = 1});
  EXPECT_EQ(scheduler.max_queued_requests(), 0u);
  // Way more requests than workers: all admitted, none refused.
  std::vector<SolveRequest> requests;
  for (int i = 0; i < 32; ++i) requests.push_back(RequestFor("rand"));
  for (const SolveResponse& response :
       scheduler.SolveBatch(instance, requests)) {
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  }
}

TEST(SchedulerAdmissionTest, ValidationFailuresDoNotConsumeQueueSlots) {
  const core::SesInstance instance = MediumInstance();
  SchedulerOptions options;
  options.num_threads = 1;
  options.max_queued_requests = 1;
  Scheduler scheduler(options);

  SolveRequest blocker = BlockerRequest();
  auto blocker_cancel = blocker.cancel;
  PendingSolve running = scheduler.Submit(instance, std::move(blocker));
  WaitForDrainedQueue(scheduler);

  // Invalid requests resolve up front; the single queue slot stays free.
  for (int i = 0; i < 4; ++i) {
    PendingSolve invalid = scheduler.Submit(instance, RequestFor("bogus"));
    EXPECT_EQ(invalid.Get().status.code(), util::StatusCode::kNotFound);
  }
  PendingSolve admitted = scheduler.Submit(instance, RequestFor("rand"));
  EXPECT_EQ(scheduler.queued_requests(), 1u);

  blocker_cancel->Cancel();
  EXPECT_EQ(running.Get().status.code(), util::StatusCode::kCancelled);
  EXPECT_TRUE(admitted.Get().status.ok());
}

// --- Work-counter hook ---------------------------------------------------

TEST(SolveContextTest, WorkCounterHookTicks) {
  const core::SesInstance instance = MediumInstance();
  std::atomic<uint64_t> counter{0};

  core::GreedySolver grd;
  core::SolverOptions options;
  options.k = 5;
  core::SolveContext context;
  context.work_counter = &counter;
  auto result = grd.Solve(instance, options, context);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->termination.ok());
  // One unit per selection iteration at minimum.
  EXPECT_GE(counter.load(), 5u);
}

TEST(SolveContextTest, ApiRequestForwardsWorkCounter) {
  const core::SesInstance instance = MediumInstance();
  Scheduler scheduler(SchedulerOptions{.num_threads = 1});
  std::atomic<uint64_t> counter{0};
  SolveRequest request = RequestFor("rand");
  request.work_counter = &counter;
  const SolveResponse response = scheduler.Solve(instance, request);
  ASSERT_TRUE(response.status.ok());
  EXPECT_GT(counter.load(), 0u);
}

}  // namespace
}  // namespace ses::api
