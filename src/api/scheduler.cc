#include "api/scheduler.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "core/registry.h"
#include "core/score_gen.h"
#include "util/mutex.h"
#include "util/string_util.h"

namespace ses::api {

namespace {

/// NotFound with the full catalog, so a caller (or a CLI user) can see
/// the valid choices without a second round trip.
util::Status UnknownSolverStatus(const std::string& name) {
  std::string catalog;
  for (const std::string& solver : core::ListSolvers()) {
    if (!catalog.empty()) catalog += ", ";
    catalog += solver;
  }
  return util::Status::NotFound("unknown solver '" + name +
                                "'; registered solvers: " + catalog);
}

/// Registry name of the per-solver solve-latency histogram.
std::string SolveSecondsName(const std::string& solver) {
  return "scheduler.solve_seconds." + solver;
}

}  // namespace

// Also what the by-reference entry points ride on internally, so they
// share one pinned code path with the by-id ones; the by-reference
// contract (instance outlives the call) is unchanged.
std::shared_ptr<const core::SesInstance> BorrowInstance(
    const core::SesInstance& instance) {
  return std::shared_ptr<const core::SesInstance>(
      std::shared_ptr<const void>(), &instance);
}

SchedulerOptions SchedulerOptions::ForSolverThreads(int64_t solver_threads) {
  SchedulerOptions options;
  if (solver_threads > 0) {
    const size_t hardware =
        std::max<size_t>(1, std::thread::hardware_concurrency());
    options.num_threads =
        std::min(static_cast<size_t>(solver_threads), hardware);
  }
  return options;
}

Scheduler::MetricHandles Scheduler::RegisterMetrics(
    util::MetricRegistry& registry) {
  MetricHandles handles;
  handles.admitted = &registry.GetCounter("scheduler.admitted");
  handles.refused = &registry.GetCounter("scheduler.refused");
  handles.validation_failed =
      &registry.GetCounter("scheduler.validation_failed");
  handles.completed = &registry.GetCounter("scheduler.completed");
  handles.cancelled = &registry.GetCounter("scheduler.cancelled");
  handles.deadline_expired =
      &registry.GetCounter("scheduler.deadline_expired");
  handles.deadline_expired_in_queue =
      &registry.GetCounter("scheduler.deadline_expired_in_queue");
  handles.session_hits = &registry.GetCounter("scheduler.session.hit");
  handles.session_misses = &registry.GetCounter("scheduler.session.miss");
  handles.score_grid_reused =
      &registry.GetCounter("scheduler.score_grid.reused");
  handles.loaded_instances = &registry.GetGauge("scheduler.session.loaded");
  const std::vector<double>& latency = util::MetricRegistry::LatencyBounds();
  for (size_t lane = 0; lane < kNumPriorityLanes; ++lane) {
    const std::string lane_name =
        PriorityToString(static_cast<Priority>(lane));
    handles.queue_depth[lane] =
        &registry.GetGauge("scheduler.queue_depth." + lane_name);
    handles.queue_wait[lane] = &registry.GetHistogram(
        "scheduler.queue_wait_seconds." + lane_name, latency);
    handles.expired_queue_wait[lane] = &registry.GetHistogram(
        "scheduler.expired_queue_wait_seconds." + lane_name, latency);
  }
  // One latency histogram per registered solver, created eagerly: the
  // catalog is fixed, so a fresh scheduler already exposes every metric
  // name (docs/METRICS.md and `ses_cli metrics` rely on this), and the
  // const solve path can look handles up without the registry mutex.
  for (const std::string& solver : core::ListSolvers()) {
    handles.solve_seconds[solver] =
        &registry.GetHistogram(SolveSecondsName(solver), latency);
  }
  return handles;
}

Scheduler::Scheduler(const SchedulerOptions& options)
    : metrics_(RegisterMetrics(registry_)),
      dispatch_(options.max_queued_requests,
                DispatchQueueMetrics{
                    .lane_depth = metrics_.queue_depth,
                    .deadline_expired_in_queue =
                        metrics_.deadline_expired_in_queue}),
      pool_(options.num_threads) {}

SchedulerMetrics Scheduler::Metrics() const {
  SchedulerMetrics metrics;
  metrics.admitted = metrics_.admitted->value();
  metrics.refused = metrics_.refused->value();
  metrics.validation_failed = metrics_.validation_failed->value();
  metrics.completed = metrics_.completed->value();
  metrics.cancelled = metrics_.cancelled->value();
  metrics.deadline_expired = metrics_.deadline_expired->value();
  metrics.deadline_expired_in_queue =
      metrics_.deadline_expired_in_queue->value();
  metrics.session_hits = metrics_.session_hits->value();
  metrics.session_misses = metrics_.session_misses->value();
  metrics.score_grid_reused = metrics_.score_grid_reused->value();
  metrics.loaded_instances = metrics_.loaded_instances->value();
  for (size_t lane = 0; lane < kNumPriorityLanes; ++lane) {
    metrics.queue_depth[lane] = metrics_.queue_depth[lane]->value();
  }
  return metrics;
}

PendingSolve Scheduler::ResolvedWithError(
    std::string solver, std::shared_ptr<core::CancelToken> cancel,
    util::Status status) {
  PendingSolve pending;
  pending.cancel_ = std::move(cancel);
  std::promise<SolveResponse> promise;
  SolveResponse response;
  response.solver = std::move(solver);
  response.status = std::move(status);
  promise.set_value(std::move(response));
  pending.future_ = promise.get_future();
  return pending;
}

util::Status Scheduler::Validate(const core::SesInstance& instance,
                                 const SolveRequest& request) const {
  auto solver = core::MakeSolver(request.solver);
  if (!solver.ok()) return UnknownSolverStatus(request.solver);
  return core::ValidateSolverOptions(instance, request.options);
}

SolveResponse Scheduler::RunRequest(const core::SesInstance& instance,
                                    core::ScoreGridCache* grid,
                                    const SolveRequest& request) const {
  SolveResponse response;
  response.solver = request.solver;

  auto solver = core::MakeSolver(request.solver);
  if (!solver.ok()) {
    metrics_.validation_failed->Increment();
    response.status = UnknownSolverStatus(request.solver);
    return response;
  }

  core::SolveContext context;
  context.deadline = request.deadline;
  context.cancel = request.cancel;
  context.work_counter = request.work_counter;
  context.score_grid = grid;

  // Intra-solver score-generation shards run on the scheduler's own pool:
  // ThreadPool::ParallelForShards is worker-re-entrant, so a solver that was
  // itself fanned out by Submit/SolveBatch shares the pool with its
  // shards instead of spawning a transient one per request. The options
  // copy (warm_start included) only happens when a pool is actually
  // lent; the common serial request solves straight off the reference.
  auto result = [&] {
    if (request.options.pool == nullptr && request.options.threads != 1) {
      core::SolverOptions options = request.options;
      options.pool = &pool_;
      return (*solver)->Solve(instance, options, context);
    }
    return (*solver)->Solve(instance, request.options, context);
  }();
  if (!result.ok()) {
    // The solver's own validation rejected the request (direct Solve
    // path; async requests were validated before admission).
    metrics_.validation_failed->Increment();
    response.status = result.status();
    return response;
  }

  response.schedule = std::move(result->assignments);
  response.utility = result->utility;
  response.wall_seconds = result->wall_seconds;
  response.stats = result->stats;
  // An interrupted run surfaces through the response status while the
  // best-so-far schedule stays available (has_schedule() is then true).
  response.status = std::move(result->termination);

  // Outcome accounting. Purely observational: counters and the latency
  // histogram never feed back into solver state, so responses are
  // bit-identical to an uninstrumented run (pinned by the stress suite).
  if (const auto it = metrics_.solve_seconds.find(request.solver);
      it != metrics_.solve_seconds.end()) {
    it->second->Observe(response.wall_seconds);
  }
  switch (response.status.code()) {
    case util::StatusCode::kOk:
      metrics_.completed->Increment();
      break;
    case util::StatusCode::kCancelled:
      metrics_.cancelled->Increment();
      break;
    case util::StatusCode::kDeadlineExceeded:
      metrics_.deadline_expired->Increment();
      break;
    default:
      break;
  }
  return response;
}

SolveResponse Scheduler::Solve(const core::SesInstance& instance,
                               const SolveRequest& request) const {
  return RunRequest(instance, nullptr, request);
}

PendingSolve Scheduler::Submit(const core::SesInstance& instance,
                               SolveRequest request) {
  return SubmitPinned({BorrowInstance(instance), nullptr}, std::move(request));
}

PendingSolve Scheduler::SubmitPinned(Session session, SolveRequest request) {
  // Guarantee a token so PendingSolve::Cancel is never a silent no-op.
  if (request.cancel == nullptr) {
    request.cancel = std::make_shared<core::CancelToken>();
  }

  // Fail fast on invalid requests: resolve the handle immediately
  // without occupying a worker or a queue slot.
  if (auto status = Validate(*session.instance, request); !status.ok()) {
    metrics_.validation_failed->Increment();
    return ResolvedWithError(request.solver, request.cancel,
                             std::move(status));
  }

  PendingSolve pending;
  pending.cancel_ = request.cancel;

  // Kept out of the task: needed again if admission refuses it below
  // and by the expire handler, which must not depend on the moved-from
  // request.
  const Priority priority = request.priority;
  const size_t lane = static_cast<size_t>(priority);
  const std::string solver_name = request.solver;
  const auto cancel = request.cancel;

  // One promise, resolved by exactly one of the two handlers below (the
  // dispatch queue guarantees that): `run` on a worker, or `expire`
  // when the deadline lapsed while the request was still queued. The
  // run lambda owns the session pin: a Drop of the instance while this
  // request is queued or running cannot invalidate it.
  auto promise = std::make_shared<std::promise<SolveResponse>>();
  pending.future_ = promise->get_future();
  const auto admitted = std::chrono::steady_clock::now();

  DispatchJob job;
  job.deadline = request.deadline;
  job.run = [this, admitted, lane, promise, session = std::move(session),
             request = std::move(request)]() {
    const std::chrono::duration<double> waited =
        std::chrono::steady_clock::now() - admitted;
    metrics_.queue_wait[lane]->Observe(waited.count());
    SolveResponse response =
        RunRequest(*session.instance, session.grid.get(), request);
    response.queue_seconds = waited.count();
    promise->set_value(std::move(response));
  };
  // Deadline-aware admission: a request that is already dead when a
  // worker reaches it is answered without running a solver — it cannot
  // delay live requests behind it. Counted as deadline_expired_in_queue
  // by the queue, not as a solver-run expiry.
  job.expire = [this, admitted, lane, promise, solver_name]() {
    const std::chrono::duration<double> waited =
        std::chrono::steady_clock::now() - admitted;
    // Expired waits go to their own histogram: a request that sat past
    // its deadline says nothing about the latency of requests that ran,
    // and mixing the two skews p50/p99 of queue_wait_seconds.
    metrics_.expired_queue_wait[lane]->Observe(waited.count());
    SolveResponse response;
    response.solver = solver_name;
    response.status = util::Status::DeadlineExceeded(util::StrFormat(
        "deadline expired after %.3fs in the queue; request dropped "
        "before reaching a solver",
        waited.count()));
    response.queue_seconds = waited.count();
    promise->set_value(std::move(response));
  };

  // Admission: the queue slot check and the enqueue are one atomic step
  // inside TryDispatch, so a burst of submitters can never overshoot
  // the bound between a check and an insert; the refusal depth is the
  // one observed under that same lock.
  size_t depth_at_refusal = 0;
  if (!dispatch_.TryDispatch(pool_, priority, std::move(job),
                             &depth_at_refusal)) {
    metrics_.refused->Increment();
    return ResolvedWithError(
        solver_name, cancel,
        util::Status::ResourceExhausted(util::StrFormat(
            "solve queue is full: %zu of %zu slots in use; retry later "
            "or raise SchedulerOptions::max_queued_requests",
            depth_at_refusal, dispatch_.max_queued())));
  }
  metrics_.admitted->Increment();
  return pending;
}

std::vector<SolveResponse> Scheduler::SolveBatch(
    const core::SesInstance& instance,
    const std::vector<SolveRequest>& requests) {
  return SolveBatchPinned({BorrowInstance(instance), nullptr}, requests);
}

std::vector<SolveResponse> Scheduler::SolveBatchPinned(
    const Session& session, const std::vector<SolveRequest>& requests) {
  // One future slot per request keeps the output order equal to the
  // request order no matter which worker finishes first — and no matter
  // the priorities, which only shuffle start order.
  std::vector<PendingSolve> pending;
  pending.reserve(requests.size());
  for (const SolveRequest& request : requests) {
    pending.push_back(SubmitPinned(session, request));
  }
  std::vector<SolveResponse> responses;
  responses.reserve(requests.size());
  for (PendingSolve& handle : pending) {
    responses.push_back(handle.Get());
  }
  return responses;
}

// --- Session cache ---------------------------------------------------------

util::Status Scheduler::LoadInstance(const std::string& name,
                                     core::SesInstance instance) {
  return LoadInstance(
      name, std::make_shared<const core::SesInstance>(std::move(instance)));
}

util::Status Scheduler::LoadInstance(
    const std::string& name,
    std::shared_ptr<const core::SesInstance> instance) {
  if (instance == nullptr) {
    return util::Status::InvalidArgument(
        "LoadInstance requires a non-null instance");
  }
  // An empty grid: the session's first complete greedy fill publishes.
  auto grid = std::make_shared<core::ScoreGridCache>(
      *instance, *metrics_.score_grid_reused);
  util::WriterMutexLock lock(instances_mutex_);
  const auto [it, inserted] = instances_.emplace(
      name, Session{std::move(instance), std::move(grid)});
  (void)it;
  if (!inserted) {
    return util::Status::AlreadyExists("instance '" + name +
                                       "' is already loaded; Drop it first");
  }
  metrics_.loaded_instances->Increment();
  return util::Status::Ok();
}

util::Status Scheduler::Drop(const std::string& name) {
  Session released;
  {
    util::WriterMutexLock lock(instances_mutex_);
    auto it = instances_.find(name);
    if (it == instances_.end()) {
      return util::Status::NotFound("instance '" + name + "' is not loaded");
    }
    // Move the pin out so a potentially large deallocation (when this
    // was the last reference) happens outside the lock.
    released = std::move(it->second);
    instances_.erase(it);
    metrics_.loaded_instances->Decrement();
  }
  return util::Status::Ok();
}

std::vector<std::string> Scheduler::LoadedInstances() const {
  std::vector<std::string> names;
  {
    util::ReaderMutexLock lock(instances_mutex_);
    names.reserve(instances_.size());
    for (const auto& [name, session] : instances_) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

util::Result<Scheduler::Session> Scheduler::Pin(
    const std::string& instance_name) const {
  util::ReaderMutexLock lock(instances_mutex_);
  auto it = instances_.find(instance_name);
  if (it == instances_.end()) {
    metrics_.session_misses->Increment();
    return util::Status::NotFound("instance '" + instance_name +
                                  "' is not loaded");
  }
  metrics_.session_hits->Increment();
  return it->second;
}

SolveResponse Scheduler::Solve(const std::string& instance_name,
                               const SolveRequest& request) const {
  auto pin = Pin(instance_name);
  if (!pin.ok()) {
    SolveResponse response;
    response.solver = request.solver;
    response.status = pin.status();
    return response;
  }
  return RunRequest(*pin->instance, pin->grid.get(), request);
}

PendingSolve Scheduler::Submit(const std::string& instance_name,
                               SolveRequest request) {
  auto pin = Pin(instance_name);
  if (!pin.ok()) {
    if (request.cancel == nullptr) {
      request.cancel = std::make_shared<core::CancelToken>();
    }
    return ResolvedWithError(request.solver, request.cancel, pin.status());
  }
  return SubmitPinned(std::move(*pin), std::move(request));
}

std::vector<SolveResponse> Scheduler::SolveBatch(
    const std::string& instance_name,
    const std::vector<SolveRequest>& requests) {
  auto pin = Pin(instance_name);
  if (!pin.ok()) {
    std::vector<SolveResponse> responses(requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      responses[i].solver = requests[i].solver;
      responses[i].status = pin.status();
    }
    return responses;
  }
  return SolveBatchPinned(std::move(*pin), requests);
}

std::vector<std::string> ListSolvers() { return core::ListSolvers(); }

}  // namespace ses::api
