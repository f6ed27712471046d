#ifndef SES_API_SCHEDULER_H_
#define SES_API_SCHEDULER_H_

/// \file
/// ses::api — the session-oriented solve surface of the library.
///
/// Serving consumers (CLI, examples, the benchmark driver, downstream
/// users) talk to solvers through a Scheduler and typed request /
/// response messages instead of hand-assembling MakeSolver +
/// SolverOptions + Validate + objective recomputation:
///
///   api::Scheduler scheduler;                 // owns a worker pool
///   api::SolveRequest request;
///   request.solver = "grd";
///   request.options.k = 40;
///   request.deadline = core::Deadline::After(0.5);   // optional budget
///   api::SolveResponse response = scheduler.Solve(instance, request);
///
/// Requests are validated up front (unknown solver, infeasible k, bad
/// warm start) and fail with a typed util::Status before any solver
/// work. Runs are interruptible: a Deadline or CancelToken stops the
/// solve at its next iteration boundary and the response still carries
/// the best feasible schedule found so far, with status
/// kDeadlineExceeded / kCancelled.
///
/// Submit() runs a request asynchronously on the scheduler's pool and
/// returns a PendingSolve; SolveBatch() fans N requests across the pool
/// and returns responses in request order regardless of completion
/// order.
///
/// The Scheduler is a *service shell*, not just an executor:
///
///  - **Admission control.** SchedulerOptions::max_queued_requests
///    bounds the work Submit/SolveBatch may park in front of the pool.
///    When the queue is full, new async requests fail fast with a
///    kResourceExhausted *response* (reporting depth and limit) instead
///    of queueing unbounded work — never a block, never an abort.
///  - **Per-request priorities.** SolveRequest::priority (High / Normal
///    / Batch) orders the queue priority-then-FIFO: a High request
///    admitted behind a wall of Batch work runs as soon as any worker
///    frees up. Priorities affect only scheduling order; responses stay
///    bit-identical to any other ordering.
///  - **Session cache.** LoadInstance(name, ...) / Drop(name) let one
///    scheduler hold many instances; the id-keyed Solve / Submit /
///    SolveBatch overloads solve against a loaded instance by name, so
///    N callers share one loaded copy instead of each threading
///    `const SesInstance&` through every hop. In-flight solves pin
///    their instance (refcounted), so Drop during a solve is safe: the
///    solve completes against the pinned copy. Each session also keeps
///    the first complete grid that an id-keyed TOP/GRD/lazy/bestfit
///    request with no warm start fills (core::ScoreGridCache); later
///    such requests read it, with bit-identical responses. That is one
///    |E|·|T| grid of doubles, 86 KB on the 5,000-user serving instance
///    and 960 KB at paper scale. By-reference calls never share it.
///  - **Deadline-aware admission.** A queued request whose deadline has
///    already expired is dropped at dequeue time — answered with
///    kDeadlineExceeded without ever occupying a worker for solver
///    time — so dead requests cannot delay live ones under saturation.
///  - **Observability.** Every admission, refusal, completion,
///    cancellation, and expiry is counted in a util::MetricRegistry,
///    along with per-lane queue depth gauges, per-lane queue-wait
///    histograms, and per-solver solve-latency histograms. Metrics()
///    returns the headline numbers as a typed struct;
///    metric_registry().Snapshot() plus util::RenderMetricsText /
///    RenderMetricsCsv give the full dump (docs/METRICS.md is the
///    reference). Instrumentation never changes what a solver computes:
///    responses stay bit-identical with metrics on (they are never
///    off).

#include <array>
#include <future>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/dispatch_queue.h"
#include "core/instance.h"
#include "core/solve_context.h"
#include "core/solver.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace ses::api {

/// One solve request: which solver, its options, and optional run bounds.
struct SolveRequest {
  /// Registered solver name ("grd", "lazy", "bestfit", "top", "rand",
  /// "exact"); see ListSolvers().
  std::string solver;

  /// Solver tuning knobs (k, seed, warm start, ...). Setting
  /// options.threads != 1 shards TOP/GRD/lazy/bestfit score generation
  /// across the scheduler's own pool (results stay bit-identical; see
  /// SolverOptions::threads).
  core::SolverOptions options;

  /// Queue urgency for Submit/SolveBatch: the scheduler drains its
  /// queue priority-then-FIFO. Has no effect on the response content,
  /// only on when the request starts; Solve() (synchronous, caller's
  /// thread) ignores it.
  Priority priority = Priority::kNormal;

  /// Wall-clock budget; unlimited by default. An expired deadline turns
  /// the run into "return the best feasible schedule found so far".
  /// RPC-style semantics: the clock starts when the Deadline is
  /// constructed, so for Submit/SolveBatch the budget covers queue wait
  /// as well as solver time — a request stuck behind a deep queue
  /// returns kDeadlineExceeded (with whatever it computed, possibly
  /// nothing) rather than blowing the caller's latency target.
  core::Deadline deadline;

  /// Optional cancellation token shared with the caller. Submit() fills
  /// this in when absent so PendingSolve::Cancel always works.
  std::shared_ptr<core::CancelToken> cancel;

  /// Optional externally-owned progress counter, bumped at solver
  /// iteration boundaries while the request runs.
  std::atomic<uint64_t>* work_counter = nullptr;
};

/// Outcome of one request.
struct SolveResponse {
  /// OK: completed schedule. kDeadlineExceeded / kCancelled: interrupted,
  /// `schedule` holds the best feasible partial result (possibly empty).
  /// kResourceExhausted: refused at admission (queue full), nothing ran.
  /// Any other code: the request failed and `schedule` is empty.
  util::Status status;

  /// The chosen assignments, sorted by (interval, event).
  std::vector<core::Assignment> schedule;

  /// Total utility Omega of `schedule` (reference objective).
  double utility = 0.0;

  /// Wall-clock seconds spent inside the solver.
  double wall_seconds = 0.0;

  /// Wall-clock seconds between admission and the solver starting —
  /// the queue wait. 0 for synchronous Solve() and for requests that
  /// never started (validation or admission failures). This is the
  /// serving-latency signal the priority lanes exist to shape.
  double queue_seconds = 0.0;

  /// Solver work counters.
  core::SolverStats stats;

  /// Name of the solver that ran (echoed from the request).
  std::string solver;

  /// True when the response carries a usable schedule: completed runs
  /// and interrupted-but-partial runs alike.
  bool has_schedule() const {
    return status.ok() ||
           status.code() == util::StatusCode::kDeadlineExceeded ||
           status.code() == util::StatusCode::kCancelled;
  }
};

/// Scheduler construction knobs.
struct SchedulerOptions {
  /// Worker threads for Submit/SolveBatch; 0 = hardware concurrency.
  size_t num_threads = 0;

  /// Admission bound: maximum requests admitted by Submit/SolveBatch
  /// but not yet started. 0 = unbounded (the pre-service-shell
  /// behavior). When the bound is hit, new async requests resolve
  /// immediately with kResourceExhausted.
  size_t max_queued_requests = 0;

  /// Pool sizing for a `--solver-threads`-style knob (the CLI and the
  /// benches share this policy): 0 keeps the all-cores default, N > 0
  /// is capped at the core count — workers beyond the cores only add
  /// spawn cost, and an absurd flag value must not translate into that
  /// many OS threads.
  static SchedulerOptions ForSolverThreads(int64_t solver_threads);
};

/// Headline scheduler metrics as plain numbers — the typed view of the
/// registry for programmatic consumers (tests, load-shedding logic).
/// Field-by-field meanings, units, and the underlying metric names are
/// documented in docs/METRICS.md; the full registry (histograms
/// included) is available via Scheduler::metric_registry().Snapshot().
struct SchedulerMetrics {
  /// Async requests accepted into the dispatch queue.
  uint64_t admitted = 0;
  /// Async requests refused at admission (queue full,
  /// kResourceExhausted).
  uint64_t refused = 0;
  /// Requests rejected before any solver ran (unknown solver,
  /// infeasible options, bad warm start).
  uint64_t validation_failed = 0;
  /// Solver runs that completed normally (OK responses).
  uint64_t completed = 0;
  /// Solver runs interrupted by cancellation.
  uint64_t cancelled = 0;
  /// Solver runs interrupted by an expired deadline.
  uint64_t deadline_expired = 0;
  /// Queued requests dropped because their deadline expired before a
  /// worker picked them up — they never reached a solver.
  uint64_t deadline_expired_in_queue = 0;
  /// Id-keyed lookups that found / missed a loaded instance.
  uint64_t session_hits = 0;
  uint64_t session_misses = 0;
  /// Requests that read their session's score grid instead of filling
  /// one.
  uint64_t score_grid_reused = 0;
  /// Instances currently loaded in the session cache.
  int64_t loaded_instances = 0;
  /// Current admitted-but-not-started depth per lane, indexed by
  /// Priority (kHigh, kNormal, kBatch).
  std::array<int64_t, kNumPriorityLanes> queue_depth = {0, 0, 0};
};

/// Handle to an in-flight asynchronous solve.
///
/// Obtained from Scheduler::Submit. Get() blocks until the response is
/// ready and may be called once; Cancel() requests cooperative
/// cancellation (the solve returns kCancelled with its best-so-far
/// schedule at the next iteration boundary).
class PendingSolve {
 public:
  PendingSolve() = default;

  /// True when a response can be fetched without blocking.
  bool Ready() const {
    return future_.valid() &&
           future_.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready;
  }

  /// Requests cancellation of the underlying solve.
  void Cancel() {
    if (cancel_ != nullptr) cancel_->Cancel();
  }

  /// Blocks until the solve finishes and returns its response. Must be
  /// called exactly once on a handle returned by Submit.
  SolveResponse Get() { return future_.get(); }

 private:
  friend class Scheduler;
  std::future<SolveResponse> future_;
  std::shared_ptr<core::CancelToken> cancel_;
};

/// Session-oriented solve front end. Owns a util::ThreadPool; one
/// Scheduler is meant to serve many requests (and many callers — all
/// entry points are thread-safe; solver runs share the pool).
///
/// Two ways to name the instance to solve:
///
///  - By reference: the instance passed to Solve/Submit/SolveBatch is
///    read concurrently and must stay alive and unmodified until every
///    response has been collected. SesInstance is immutable after
///    Build, so this is the natural contract.
///  - By id: LoadInstance the instance once, then solve against its
///    name from any thread. The scheduler keeps owned instances alive
///    while any solve is in flight, Drop or not.
class Scheduler {
 public:
  explicit Scheduler(const SchedulerOptions& options = SchedulerOptions());

  /// Typed pre-flight check, run before any solver work: NotFound for an
  /// unknown solver name (the message lists the catalog),
  /// InvalidArgument for an infeasible k or a bad warm start.
  [[nodiscard]] util::Status Validate(const core::SesInstance& instance,
                        const SolveRequest& request) const;

  /// Validates and runs \p request synchronously on the calling thread.
  SolveResponse Solve(const core::SesInstance& instance,
                      const SolveRequest& request) const;

  /// Validates \p request and enqueues it on the pool at its priority.
  /// Validation errors surface through the returned handle's Get(),
  /// never as lost work; so does an admission refusal
  /// (kResourceExhausted) when the queue is at
  /// SchedulerOptions::max_queued_requests.
  PendingSolve Submit(const core::SesInstance& instance,
                      SolveRequest request);

  /// Runs every request concurrently on the pool and returns responses
  /// in request order — deterministic regardless of worker count,
  /// priorities, or completion order. Invalid or refused requests yield
  /// error responses in their slot without disturbing their siblings.
  std::vector<SolveResponse> SolveBatch(
      const core::SesInstance& instance,
      const std::vector<SolveRequest>& requests);

  // --- Session cache -----------------------------------------------------

  /// Takes ownership of \p instance and registers it under \p name for
  /// the id-keyed entry points. AlreadyExists if \p name is taken
  /// (Drop first to replace).
  [[nodiscard]] util::Status LoadInstance(const std::string& name,
                            core::SesInstance instance)
      SES_EXCLUDES(instances_mutex_);

  /// Shared-ownership variant: registers an instance the caller also
  /// holds (or, via a non-owning shared_ptr, merely borrows — the
  /// caller then guarantees the instance outlives Drop and every solve
  /// submitted against it).
  [[nodiscard]] util::Status LoadInstance(
      const std::string& name,
      std::shared_ptr<const core::SesInstance> instance)
      SES_EXCLUDES(instances_mutex_);

  /// Unregisters \p name. NotFound when it is not loaded. Safe while
  /// solves against \p name are in flight: each solve pinned the
  /// instance at submission, completes normally, and the storage is
  /// released, with the session's score grid, when the last pin goes
  /// away. A later LoadInstance under \p name starts with no grid.
  [[nodiscard]] util::Status Drop(const std::string& name)
      SES_EXCLUDES(instances_mutex_);

  /// Names of the currently loaded instances, sorted.
  std::vector<std::string> LoadedInstances() const
      SES_EXCLUDES(instances_mutex_);

  /// Id-keyed counterparts of the by-reference entry points, solving
  /// against the instance loaded under \p instance_name. An unknown
  /// name yields a kNotFound response (for Submit: through Get()).
  SolveResponse Solve(const std::string& instance_name,
                      const SolveRequest& request) const;
  PendingSolve Submit(const std::string& instance_name,
                      SolveRequest request);
  std::vector<SolveResponse> SolveBatch(
      const std::string& instance_name,
      const std::vector<SolveRequest>& requests);

  /// Worker threads in the pool.
  size_t num_threads() const { return pool_.num_threads(); }

  /// Requests admitted but not yet started (async paths).
  size_t queued_requests() const { return dispatch_.queued(); }

  /// The admission bound; 0 = unbounded.
  size_t max_queued_requests() const { return dispatch_.max_queued(); }

  // --- Observability -----------------------------------------------------

  /// Headline counters and gauges as a typed struct (see
  /// SchedulerMetrics). Cheap: a handful of relaxed atomic loads.
  SchedulerMetrics Metrics() const;

  /// The full registry behind Metrics() — snapshot it for histograms
  /// and for rendering (util::RenderMetricsText / RenderMetricsCsv).
  /// Every name it registers is documented in docs/METRICS.md.
  const util::MetricRegistry& metric_registry() const { return registry_; }

 private:
  /// A pinned instance and its session score grid. The session cache
  /// holds one per loaded instance and every in-flight request a copy,
  /// which keeps both alive past a Drop. The by-reference entry points
  /// pin a non-owning alias and no grid.
  struct Session {
    std::shared_ptr<const core::SesInstance> instance;
    std::shared_ptr<core::ScoreGridCache> grid;
  };

  /// Validates and executes one request end to end; \p grid (nullable)
  /// is lent to the solver through SolveContext::score_grid.
  SolveResponse RunRequest(const core::SesInstance& instance,
                           core::ScoreGridCache* grid,
                           const SolveRequest& request) const;

  /// Shared Submit body: \p session keeps the instance and its grid
  /// alive for the task's lifetime.
  PendingSolve SubmitPinned(Session session, SolveRequest request);

  /// SolveBatch body over an already-pinned session.
  std::vector<SolveResponse> SolveBatchPinned(
      const Session& session, const std::vector<SolveRequest>& requests);

  /// Looks up a loaded instance; NotFound names the unknown id.
  [[nodiscard]] util::Result<Session> Pin(
      const std::string& instance_name) const SES_EXCLUDES(instances_mutex_);

  /// A handle already resolved with an error — the shape of every
  /// fail-fast path (validation, admission, unknown instance id).
  static PendingSolve ResolvedWithError(
      std::string solver, std::shared_ptr<core::CancelToken> cancel,
      util::Status status);

  /// Pre-looked-up registry handles, cached once at construction so the
  /// serving paths never pay the registration mutex. All increments are
  /// relaxed atomics; docs/METRICS.md documents each name.
  struct MetricHandles {
    util::Counter* admitted = nullptr;
    util::Counter* refused = nullptr;
    util::Counter* validation_failed = nullptr;
    util::Counter* completed = nullptr;
    util::Counter* cancelled = nullptr;
    util::Counter* deadline_expired = nullptr;
    util::Counter* deadline_expired_in_queue = nullptr;
    util::Counter* session_hits = nullptr;
    util::Counter* session_misses = nullptr;
    util::Counter* score_grid_reused = nullptr;
    util::Gauge* loaded_instances = nullptr;
    std::array<util::Gauge*, kNumPriorityLanes> queue_depth = {};
    /// Queue wait of requests that went on to run. Kept separate from
    /// expired_queue_wait so latency percentiles are not polluted by
    /// requests that merely sat past their deadline.
    std::array<util::Histogram*, kNumPriorityLanes> queue_wait = {};
    /// Queue wait of requests dropped at dequeue because their deadline
    /// had already expired.
    std::array<util::Histogram*, kNumPriorityLanes> expired_queue_wait = {};
    /// Solve-latency histogram per registered solver name. The solver
    /// catalog is fixed at construction, so lookups from const paths
    /// need no registry mutex.
    std::unordered_map<std::string, util::Histogram*> solve_seconds;
  };

  /// Registers every fixed-name scheduler metric (including one
  /// solve-latency histogram per registered solver, so a fresh
  /// scheduler already exposes the full catalog) and returns the cached
  /// handles.
  static MetricHandles RegisterMetrics(util::MetricRegistry& registry);

  /// Owns every metric; declared first so pool tasks, which update
  /// metrics, are torn down before it.
  util::MetricRegistry registry_;
  MetricHandles metrics_;

  /// Loaded instances, keyed by caller-chosen name. Session values are
  /// the pins: an in-flight solve holds a copy, so Drop only removes the
  /// map entry and the instance and its grid outlive it as long as
  /// needed. Reader/writer capability: lookups (Pin, LoadedInstances)
  /// take it shared, Load/Drop exclusive.
  mutable util::SharedMutex instances_mutex_;
  std::unordered_map<std::string, Session> instances_
      SES_GUARDED_BY(instances_mutex_);

  // Declared before pool_ so the pool (whose destructor drains pending
  // dispatch tasks that touch dispatch_) is destroyed first.
  DispatchQueue dispatch_;

  // Mutable: the pool is a thread-safe execution resource, and const
  // entry points (Solve) lend it to solvers whose options ask for
  // intra-solver parallelism (SolverOptions::threads != 1).
  mutable util::ThreadPool pool_;
};

/// All registered solver names, in presentation order (forwarded from
/// the core registry so api callers need no core include).
std::vector<std::string> ListSolvers();

/// Non-owning alias of a caller-owned instance — the idiom for handing
/// an instance to the shared_ptr LoadInstance overload without a copy.
/// The caller guarantees \p instance outlives the Drop and every solve
/// submitted against it (the refcounted pin then protects nothing; it
/// is the caller's lifetime promise that does).
std::shared_ptr<const core::SesInstance> BorrowInstance(
    const core::SesInstance& instance);

}  // namespace ses::api

#endif  // SES_API_SCHEDULER_H_
