#include "core/lazy_greedy.h"

#include <queue>

#include "core/attendance.h"
#include "core/objective.h"
#include "core/score_gen.h"
#include "util/timer.h"

namespace ses::core {

namespace {

struct HeapEntry {
  double score;
  EventIndex event;
  IntervalIndex interval;
  /// Version of the interval when the score was computed.
  uint32_t version;
};

struct HeapLess {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    return a.score < b.score;
  }
};

}  // namespace

util::Result<SolverResult> LazyGreedySolver::DoSolve(
    const SesInstance& instance, const SolverOptions& options,
    const SolveContext& context) {
  util::WallTimer timer;

  AttendanceModel model(instance);
  SES_RETURN_IF_ERROR(ApplyWarmStart(model, options.warm_start));
  SolverStats stats;

  // Initial scores from the grid shared with GRD (score_gen.h): read in
  // serial t-major order, so heap construction — and every pop after
  // it — is identical at every SolverOptions::threads value.
  const size_t num_events = instance.num_events();
  const InitialScores initial = GetInitialScores(instance, options, context);
  const std::vector<double>& grid = initial.grid();
  util::Status termination = initial.generated.termination;
  std::vector<HeapEntry> init;
  if (termination.ok()) {
    init.reserve(grid.size());
    for (IntervalIndex t = 0; t < instance.num_intervals(); ++t) {
      for (EventIndex e = 0; e < num_events; ++e) {
        if (model.schedule().IsAssigned(e)) continue;  // warm-started
        init.push_back(
            {grid[static_cast<size_t>(t) * num_events + e], e, t, 0});
      }
    }
  }
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapLess> heap(
      HeapLess{}, std::move(init));
  std::vector<uint32_t> interval_version(instance.num_intervals(), 0);

  const size_t k = static_cast<size_t>(options.k);
  // A partially generated heap would miss high intervals, so selection
  // only runs when generation completed.
  while (termination.ok() && model.schedule().size() < k && !heap.empty()) {
    if (context.CheckStop(&termination)) break;
    context.CountWork(1);
    HeapEntry top = heap.top();
    heap.pop();
    ++stats.pops;

    if (!model.CanAssign(top.event, top.interval)) continue;  // drop

    if (top.version != interval_version[top.interval]) {
      // Stale: the interval changed since this score was computed. The
      // stale score upper-bounds the fresh one, so recompute and re-queue.
      top.score = model.MarginalGain(top.event, top.interval);
      top.version = interval_version[top.interval];
      ++stats.updates;
      heap.push(top);
      continue;
    }

    model.Apply(top.event, top.interval);
    ++interval_version[top.interval];
  }

  // Generation ran on its own engines; adding their count keeps the total
  // equal to one model scoring everything.
  stats.gain_evaluations =
      model.gain_evaluations() + initial.generated.gain_evaluations;

  SolverResult result;
  result.assignments = model.schedule().Assignments();
  result.utility = TotalUtility(instance, model.schedule());
  result.wall_seconds = timer.ElapsedSeconds();
  result.stats = stats;
  result.solver = std::string(name());
  result.termination = std::move(termination);
  return result;
}

}  // namespace ses::core
