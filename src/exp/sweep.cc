#include "exp/sweep.h"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "core/registry.h"
#include "core/validate.h"
#include "util/logging.h"
#include "util/mutex.h"
#include "util/string_util.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace ses::exp {

namespace {

/// One unit of sweep work: build point `point` (no instance yet), or run
/// solver `solver` on its built instance. The last solver unit of a
/// point frees the instance.
struct Work {
  size_t point = 0;
  size_t solver = 0;
  std::shared_ptr<const core::SesInstance> instance;
};

/// Hands sweep work to the lanes. The solvers of built points go first,
/// oldest point first, so instances are freed early and a point's
/// solvers spread over every free lane; otherwise the next point is
/// built. A lane with nothing to take waits while a build is in flight,
/// since that build releases solver work. No lane ever waits on nested
/// work, so none idles while another lane has solvers queued.
class WorkQueue {
 public:
  WorkQueue(size_t points, size_t solvers)
      : points_(points), solvers_(solvers) {}

  /// The next unit, or nullopt once the sweep is drained.
  std::optional<Work> Next() SES_EXCLUDES(mutex_) {
    mutex_.Lock();
    while (ready_.empty() && !CanBuild() && building_ > 0) {
      changed_.Wait(mutex_);
    }
    std::optional<Work> work;
    if (!ready_.empty()) {
      work = std::move(ready_.front());
      ready_.pop_front();
    } else if (CanBuild()) {
      ++building_;
      work = Work{next_point_++, 0, nullptr};
    }
    mutex_.Unlock();
    return work;
  }

  /// Ends the build of \p point: queues its solvers, or on a failed
  /// build (null \p instance) stops further builds.
  void Built(size_t point, std::shared_ptr<const core::SesInstance> instance)
      SES_EXCLUDES(mutex_) {
    {
      util::MutexLock lock(mutex_);
      --building_;
      if (instance == nullptr) {
        stopped_ = true;
      } else {
        for (size_t s = 0; s < solvers_; ++s) {
          ready_.push_back(Work{point, s, instance});
        }
      }
    }
    changed_.NotifyAll();
  }

  /// After a failure, points not yet started are skipped.
  void Stop() SES_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    stopped_ = true;
  }

 private:
  bool CanBuild() const SES_REQUIRES(mutex_) {
    return next_point_ < points_ && !stopped_;
  }

  const size_t points_;
  const size_t solvers_;
  util::Mutex mutex_;
  util::CondVar changed_;
  std::deque<Work> ready_ SES_GUARDED_BY(mutex_);
  size_t next_point_ SES_GUARDED_BY(mutex_) = 0;
  size_t building_ SES_GUARDED_BY(mutex_) = 0;
  bool stopped_ SES_GUARDED_BY(mutex_) = false;
};

/// Runs solver \p name once on \p instance and fills \p record.
util::Status RunSolver(const core::SesInstance& instance,
                       const std::string& name,
                       const core::SolverOptions& options, int64_t x,
                       RunRecord& record) {
  SES_ASSIGN_OR_RETURN(std::unique_ptr<core::Solver> solver,
                       core::MakeSolver(name));
  SES_ASSIGN_OR_RETURN(core::SolverResult result,
                       solver->Solve(instance, options));
  // Sweep solves carry no deadline or cancel token, so an early stop is
  // a hard failure, never an interrupted run.
  SES_RETURN_IF_ERROR(result.termination);
  // Every schedule a solver returns must be feasible; fail loudly
  // otherwise rather than reporting a bogus utility.
  SES_RETURN_IF_ERROR(core::ValidateAssignments(instance, result.assignments));
  record.solver = name;
  record.x = x;
  record.utility = result.utility;
  record.gain_evaluations = result.stats.gain_evaluations;
  record.assignments = result.assignments.size();
  record.measurement.seconds = result.wall_seconds;
  return util::Status::Ok();
}

}  // namespace

util::Result<std::vector<RunRecord>> RunSweep(
    const WorkloadFactory& factory, const std::vector<SweepPoint>& points,
    const std::vector<std::string>& solvers, size_t jobs) {
  for (const std::string& name : solvers) {
    SES_RETURN_IF_ERROR(core::MakeSolver(name).status());
  }
  const size_t per_point = solvers.size();
  if (per_point == 0) return std::vector<RunRecord>{};

  // One thread per core: the caller plus cores - 1 workers, shared by the
  // point builds, the solvers, and their score-generation shards.
  util::ThreadPool pool(
      std::max<size_t>(2, std::thread::hardware_concurrency()) - 1);
  const size_t lanes = jobs == 0 ? pool.num_threads() + 1 : jobs;
  // One slot per record keeps output order independent of completion
  // order; a failed build lands in its point's first slot, so scanning
  // the slots in order finds the lowest-index failure.
  std::vector<RunRecord> records(points.size() * per_point);
  std::vector<util::Status> failures(records.size());
  WorkQueue queue(points.size(), per_point);

  // ParallelForShards caps the lanes at the pool's; each runs the loop.
  pool.ParallelForShards(0, lanes, lanes, [&](size_t, size_t) {
    while (std::optional<Work> work = queue.Next()) {
      const SweepPoint& point = points[work->point];
      if (work->instance == nullptr) {
        util::Result<core::SesInstance> instance = factory.Build(point.config);
        std::shared_ptr<const core::SesInstance> built;
        if (instance.ok()) {
          built = std::make_shared<const core::SesInstance>(
              std::move(instance).value());
        } else {
          failures[work->point * per_point] = instance.status();
        }
        queue.Built(work->point, std::move(built));
        continue;
      }
      core::SolverOptions options = point.options;
      options.pool = &pool;
      const size_t slot = work->point * per_point + work->solver;
      failures[slot] = RunSolver(*work->instance, solvers[work->solver],
                                 options, point.x, records[slot]);
      if (!failures[slot].ok()) queue.Stop();
      SES_LOG(kInfo) << "sweep x=" << point.x << " "
                     << solvers[work->solver] << " done";
    }
  });

  for (const util::Status& failure : failures) {
    if (!failure.ok()) return failure;
  }
  return records;
}

util::Result<std::vector<SweepCell>> RunRepeatedSweep(
    const WorkloadFactory& factory, const std::vector<int64_t>& xs,
    const ConfigFactory& make_config,
    const std::vector<std::string>& solvers, int repetitions,
    uint64_t base_seed, size_t jobs, int64_t solver_threads) {
  if (repetitions <= 0) {
    return util::Status::InvalidArgument("repetitions must be positive");
  }
  // Each (x, rep) cell is one independent sweep point; the per-cell seed
  // depends only on (x, rep), never on execution order.
  std::vector<SweepPoint> points;
  points.reserve(xs.size() * static_cast<size_t>(repetitions));
  for (int64_t x : xs) {
    for (int rep = 0; rep < repetitions; ++rep) {
      const uint64_t seed =
          base_seed + static_cast<uint64_t>(rep) * 1000003ULL +
          static_cast<uint64_t>(x);
      SweepPoint point;
      point.config = make_config(x, seed);
      point.options.k = point.config.k;
      point.options.seed = seed;
      point.options.threads = solver_threads;
      point.x = x;
      points.push_back(std::move(point));
    }
  }

  auto records = RunSweep(factory, points, solvers, jobs);
  if (!records.ok()) return records.status();

  // Records arrive in point order, so samples accumulate in the same
  // order at every jobs value.
  std::map<std::pair<int64_t, std::string>,
           std::pair<std::vector<double>, std::vector<double>>>
      samples;
  for (const RunRecord& record : *records) {
    auto& cell = samples[{record.x, record.solver}];
    cell.first.push_back(record.utility);
    cell.second.push_back(record.measurement.seconds);
  }

  std::vector<SweepCell> cells;
  cells.reserve(samples.size());
  for (const auto& [key, values] : samples) {
    SweepCell cell;
    cell.x = key.first;
    cell.solver = key.second;
    cell.utility = util::Summarize(values.first);
    cell.seconds = util::Summarize(values.second);
    cells.push_back(std::move(cell));
  }
  return cells;
}

std::string RenderSweepTable(const std::string& title,
                             const std::string& x_label,
                             const std::vector<std::string>& solver_order,
                             const std::vector<SweepCell>& cells,
                             bool show_seconds) {
  std::map<int64_t, std::map<std::string, const SweepCell*>> grid;
  for (const SweepCell& cell : cells) {
    grid[cell.x][cell.solver] = &cell;
  }
  std::string out = "=== " + title + " ===\n";
  out += util::StrFormat("%10s", x_label.c_str());
  for (const std::string& solver : solver_order) {
    out += util::StrFormat(" %22s", solver.c_str());
  }
  out += "\n";
  for (const auto& [x, row] : grid) {
    out += util::StrFormat("%10lld", static_cast<long long>(x));
    for (const std::string& solver : solver_order) {
      auto it = row.find(solver);
      if (it == row.end()) {
        out += util::StrFormat(" %22s", "-");
        continue;
      }
      const util::Summary& s =
          show_seconds ? it->second->seconds : it->second->utility;
      out += util::StrFormat(" %14.2f +-%6.2f", s.mean, s.stddev);
    }
    out += "\n";
  }
  return out;
}

}  // namespace ses::exp
