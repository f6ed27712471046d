/// perfbench_driver — runs one workload of the benchmark and writes its raw
/// measurements (per-request latencies, set-up times, peak RSS and, when
/// traced, the spans) as one JSON file for perfbench/analysis.py.
///
///   perfbench_driver --workload=cold_solve|serve_open|hop_bestfit
///                    --seed=N --seconds=S --trace=0|1
///                    --work=DIR --out=FILE
///
/// Workloads (perfbench/README.md says why each exists):
///   cold_solve   closed loop, 1 client: LoadInstance -> Scheduler::Validate
///                -> grd k=200 -> ValidateAssignments + utility check, on the
///                paper-scale instance written to disk during set-up.
///   serve_open   open loop: Poisson arrivals at a fixed rate against an
///                api::Scheduler (nproc-1 workers) holding a 5,000-user
///                instance in its session cache; mixed solvers and lanes.
///   hop_bestfit  closed loop, 1 client: bestfit k=200 through Solver::Solve
///                on the paper-scale instance loaded during set-up.
///
/// Every response is validated (feasible, exactly k assignments) and its
/// utility recomputed from scratch; for the pinned seeds the utility must
/// also match the value recorded in kPins. A request that fails any check
/// is reported with its error and counts as failed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include "api/scheduler.h"
#include "core/attendance.h"
#include "core/instance_io.h"
#include "core/objective.h"
#include "core/registry.h"
#include "core/schedule.h"
#include "core/score_gen.h"
#include "core/validate.h"
#include "driver/tracer.h"
#include "ebsn/generator.h"
#include "exp/workload.h"
#include "util/flags.h"
#include "util/random.h"

namespace perfbench {
namespace {

using namespace ses;

/// Generator and workload sizes of one instance family.
struct Shape {
  uint32_t users;
  uint32_t events;
  uint32_t groups;
  uint32_t tags;
  int64_t k;
};

/// The ROADMAP paper-scale instance: |U|=20000, |E|=400, |T|=300.
constexpr Shape kPaperShape{20000, 4000, 400, 300, 200};
/// The serving instance: |U|=5000, |E|=120, |T|=90.
constexpr Shape kServeShape{5000, 2000, 200, 200, 60};

/// Workload seed -> generator seeds. Seed 1 reproduces the ROADMAP
/// instance (`generate-data --seed=3`, `build-instance --seed=7`).
uint64_t DatasetSeed(uint64_t seed) { return seed + 2; }
uint64_t BuildSeed(uint64_t seed) { return seed + 6; }

/// Open-loop offered rate: about 60% of the capacity of nproc-1 = 3
/// workers on a 4-core machine. The mix's mean solve there is about
/// 0.25 s with three solvers running at once, so capacity is about 12 rps.
constexpr double kServeRateHz = 7.0;
/// Open-loop request count floor: p90 needs at least 10 samples beyond it.
constexpr int64_t kServeMinRequests = 120;
/// serve_open serves one fixed instance (what workload seed 1 generates);
/// its workload seed draws only the arrival plan.
constexpr uint64_t kServeInstanceSeed = 1;
/// Set-up repetitions for serve_open (set-up is cheap there; setup_s is
/// their median). The paper-scale workloads set up once per run.
constexpr int kServeSetupRepeats = 5;

/// Solver mix of serve_open, with the request seed range of each solver
/// (only rand depends on its seed).
struct MixEntry {
  const char* solver;
  double weight;
  uint64_t seeds;
};
constexpr MixEntry kServeMix[] = {{"grd", 0.35, 1},
                                  {"lazy", 0.20, 1},
                                  {"top", 0.15, 1},
                                  {"bestfit", 0.20, 1},
                                  {"rand", 0.10, 3}};

/// Utilities pinned per instance seed: the paper-scale instances of the
/// default workload seed (1) and one held-out seed (2), and the serving
/// instance. `request` is "<solver>/<request seed>".
struct Pin {
  const char* family;
  uint64_t seed;
  const char* request;
  double utility;
};
constexpr Pin kPins[] = {
    {"paper", 1, "grd/1", 279790.748},
    {"paper", 1, "bestfit/1", 271757.394},
    {"paper", 2, "grd/1", 276222.958},
    {"paper", 2, "bestfit/1", 261755.962},
    {"serve", kServeInstanceSeed, "grd/1", 27562.036425},
    {"serve", kServeInstanceSeed, "lazy/1", 27562.036425},
    {"serve", kServeInstanceSeed, "top/1", 16533.124722},
    {"serve", kServeInstanceSeed, "bestfit/1", 26999.449427},
    {"serve", kServeInstanceSeed, "rand/1", 16219.353455},
    {"serve", kServeInstanceSeed, "rand/2", 16730.457407},
    {"serve", kServeInstanceSeed, "rand/3", 14643.808416},
};

std::optional<double> PinnedUtility(const std::string& family, uint64_t seed,
                                    const std::string& request) {
  for (const Pin& pin : kPins) {
    if (family == pin.family && seed == pin.seed && request == pin.request) {
      return pin.utility;
    }
  }
  return std::nullopt;
}

bool Close(double a, double b) {
  return std::fabs(a - b) <= 1e-6 * std::max({std::fabs(a), std::fabs(b), 1.0});
}

// --- Memory ---------------------------------------------------------------

/// A "VmHWM"/"VmRSS" line of /proc/self/status, in MB (0 if unreadable).
double StatusMb(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, key.size() + 1, key + ":") == 0) {
      return std::stod(line.substr(key.size() + 1)) / 1024.0;
    }
  }
  return 0.0;
}

/// Peak RSS of a phase: resets the kernel's high-water mark at Start()
/// and folds in every later reset, so nested measurements (the load's own
/// delta) do not hide the phase peak.
class PeakRss {
 public:
  void Start() {
    peak_mb_ = 0.0;
    ReleaseFreedMemory();
    ResetKernelPeak();
  }
  /// Starts a nested window; returns the RSS at its start.
  double Mark() {
    peak_mb_ = std::max(peak_mb_, StatusMb("VmHWM"));
    ReleaseFreedMemory();
    ResetKernelPeak();
    return StatusMb("VmRSS");
  }
  double PeakMb() {
    peak_mb_ = std::max(peak_mb_, StatusMb("VmHWM"));
    return peak_mb_;
  }

 private:
  /// Hands memory freed by earlier phases back to the kernel, so a
  /// phase's RSS is its own live data, not the allocator's free lists.
  static void ReleaseFreedMemory() { malloc_trim(0); }
  static void ResetKernelPeak() {
    std::ofstream clear_refs("/proc/self/clear_refs");
    clear_refs << "5";
  }
  double peak_mb_ = 0.0;
};

// --- Results ----------------------------------------------------------------

/// One request: when it was due, when the driver issued it and when its
/// checked response was back (ns on the tracer's clock). Closed loops
/// issue each request when it is due.
struct Outcome {
  int64_t id = 0;
  int64_t due_ns = 0;
  int64_t submit_ns = 0;
  int64_t done_ns = 0;
  std::string error;  ///< empty when every check passed
};

struct RunResult {
  std::vector<double> setup_s;
  std::vector<Outcome> requests;
  double peak_rss_mb = 0.0;
};

std::string JsonSafe(std::string text) {
  for (char& c : text) {
    if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) c = '\'';
  }
  return text;
}

bool WriteResults(const std::string& path, const std::string& workload,
                  uint64_t seed, const RunResult& result, const Tracer& tracer,
                  double span_cost_ns) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d,\n",
               workload.c_str(), static_cast<unsigned long long>(seed),
               tracer.enabled() ? 1 : 0);
  std::fputs("\"setup_s\": [", out);
  for (size_t i = 0; i < result.setup_s.size(); ++i) {
    std::fprintf(out, "%s%.17g", i == 0 ? "" : ", ", result.setup_s[i]);
  }
  std::fputs("],\n\"requests\": [", out);
  for (size_t i = 0; i < result.requests.size(); ++i) {
    const Outcome& r = result.requests[i];
    std::fprintf(out,
                 "%s\n{\"id\": %lld, \"due_ns\": %lld, \"submit_ns\": %lld, "
                 "\"done_ns\": %lld, \"error\": \"%s\"}",
                 i == 0 ? "" : ",", static_cast<long long>(r.id),
                 static_cast<long long>(r.due_ns),
                 static_cast<long long>(r.submit_ns),
                 static_cast<long long>(r.done_ns), JsonSafe(r.error).c_str());
  }
  std::fprintf(out, "],\n\"peak_rss_mb\": %.17g,\n\"span_cost_ns\": %.17g,\n",
               result.peak_rss_mb, span_cost_ns);
  std::fputs("\"spans\": ", out);
  tracer.WriteJson(out);
  std::fputs("}\n", out);
  return std::fclose(out) == 0;
}

// --- Shared steps -------------------------------------------------------------

util::Result<core::SesInstance> GenerateInstance(Tracer& tracer,
                                                 const Shape& shape,
                                                 uint64_t seed) {
  ebsn::SyntheticMeetupConfig data_config;
  data_config.num_users = shape.users;
  data_config.num_events = shape.events;
  data_config.num_groups = shape.groups;
  data_config.num_tags = shape.tags;
  data_config.seed = DatasetSeed(seed);
  ebsn::EbsnDataset dataset;
  {
    Tracer::Span span(tracer, "ebsn.GenerateSyntheticMeetup", -1);
    dataset = ebsn::GenerateSyntheticMeetup(data_config);
  }
  exp::PaperWorkloadConfig config;
  config.k = shape.k;
  config.seed = BuildSeed(seed);
  Tracer::Span span(tracer, "exp.WorkloadFactory.Build", -1);
  const exp::WorkloadFactory factory(dataset);
  return factory.Build(config);
}

/// Validates \p schedule (exactly k assignments) and compares its
/// reported utility with \p expected; with \p recompute, the utility is
/// also recomputed from scratch and must match the reported one.
/// Returns an error message, empty when every check passed.
std::string CheckSchedule(Tracer& tracer, int64_t request,
                          const core::SesInstance& instance,
                          const std::vector<core::Assignment>& schedule,
                          int64_t k, double reported,
                          std::optional<double> expected,
                          bool recompute = true) {
  {
    Tracer::Span span(tracer, "core.ValidateAssignments", request);
    if (util::Status status = core::ValidateAssignments(instance, schedule, k);
        !status.ok()) {
      return "infeasible: " + status.ToString();
    }
  }
  char message[160];
  if (recompute) {
    double utility = 0.0;
    Tracer::Span span(tracer, "core.TotalUtility", request);
    core::Schedule rebuilt(instance);
    for (const core::Assignment& a : schedule) {
      if (!rebuilt.Assign(a.event, a.interval).ok()) {
        return "schedule does not replay";
      }
    }
    utility = core::TotalUtility(instance, rebuilt);
    span.End();
    if (!Close(utility, reported)) {
      std::snprintf(message, sizeof(message),
                    "reported utility %.6f, recomputed %.6f", reported,
                    utility);
      return message;
    }
  }
  if (expected.has_value() && !Close(reported, *expected)) {
    std::snprintf(message, sizeof(message), "utility %.6f, expected %.6f",
                  reported, *expected);
    return message;
  }
  return "";
}

/// Sets up a paper-scale instance on disk under \p dir: generate, build,
/// save, and (for \p loaded) load it back. Returns the set-up seconds.
util::Result<double> SetupPaper(Tracer& tracer, uint64_t seed,
                                const std::string& dir,
                                std::optional<core::SesInstance>* loaded) {
  Tracer::Span setup(tracer, "setup", -1);
  {
    auto built = GenerateInstance(tracer, kPaperShape, seed);
    if (!built.ok()) return built.status();
    core::SigmaSpec spec;
    spec.kind = core::SigmaSpec::Kind::kHash;
    spec.seed = BuildSeed(seed) ^ 0x5161a5ea11ULL;  // as ses_cli build-instance
    std::filesystem::create_directories(dir);
    {
      Tracer::Span span(tracer, "core.SaveInstance", -1);
      if (util::Status status = core::SaveInstance(*built, spec, dir);
          !status.ok()) {
        return status;
      }
    }
    // Finish the write-back now, so it does not run under the timed loads.
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const int fd = ::open(entry.path().c_str(), O_RDONLY);
      if (fd < 0 || ::fsync(fd) != 0) {
        if (fd >= 0) ::close(fd);
        return util::Status::IoError("cannot sync " + entry.path().string());
      }
      ::close(fd);
    }
  }
  if (loaded != nullptr) {
    Tracer::Span span(tracer, "instance_io.LoadInstance", -1);
    auto instance = core::LoadInstance(dir);
    if (!instance.ok()) return instance.status();
    loaded->emplace(std::move(instance).value());
  }
  return setup.End();
}

double DirectoryBytes(const std::string& dir) {
  double bytes = 0.0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += static_cast<double>(entry.file_size());
  }
  return bytes;
}

// --- Probes (traced runs only) ---------------------------------------------------

/// Standalone Algorithm 1 lines 2-4 at threads 1: score_gen.*.
void ProbeScoreGen(Tracer& tracer, const core::SesInstance& instance,
                   int64_t k) {
  core::SolverOptions options;
  options.k = k;
  options.threads = 1;
  const double pairs =
      static_cast<double>(instance.num_events()) * instance.num_intervals();
  std::vector<double> scores(static_cast<size_t>(pairs), 0.0);
  Tracer::Span span(tracer, "core.GenerateAssignmentScores", -1);
  (void)core::GenerateAssignmentScores(instance, options, core::SolveContext(),
                                       scores);
  span.Attr("pairs", pairs);
}

/// Interval-major MarginalGain sweep (GRD's generation order) over the
/// first intervals: attendance.gain_sweep_ns.
void ProbeGainSweep(Tracer& tracer, const core::SesInstance& instance) {
  core::AttendanceModel model(instance);
  const uint32_t intervals = std::min<uint32_t>(instance.num_intervals(), 60);
  double checksum = 0.0;
  Tracer::Span span(tracer, "core.AttendanceModel.MarginalGain:sweep", -1);
  for (core::IntervalIndex t = 0; t < intervals; ++t) {
    for (core::EventIndex e = 0; e < instance.num_events(); ++e) {
      checksum += model.MarginalGain(e, t);
    }
  }
  span.Attr("calls", static_cast<double>(intervals) * instance.num_events());
  span.Attr("checksum", checksum);
}

/// Event-major MarginalGain hops (bestfit's selection order: every call
/// reloads an interval, replaying its sigma/competing cache), then
/// Apply/Unapply pairs: attendance.gain_hop_ns and apply_unapply_ns.
void ProbeHops(Tracer& tracer, const core::SesInstance& instance) {
  core::AttendanceModel model(instance);
  const uint32_t intervals = instance.num_intervals();
  // One load of every interval, as bestfit's priority pass leaves them.
  for (core::IntervalIndex t = 0; t < intervals; ++t) {
    (void)model.MarginalGain(0, t);
  }
  const uint32_t events = std::min<uint32_t>(instance.num_events(), 40);
  double checksum = 0.0;
  {
    Tracer::Span span(tracer, "core.AttendanceModel.MarginalGain:hop", -1);
    for (core::EventIndex e = 0; e < events; ++e) {
      for (core::IntervalIndex t = 0; t < intervals; ++t) {
        checksum += model.MarginalGain(e, t);
      }
    }
    span.Attr("calls", static_cast<double>(events) * intervals);
    span.Attr("checksum", checksum);
  }
  Tracer::Span span(tracer, "core.AttendanceModel.ApplyUnapply", -1);
  double pairs = 0.0;
  for (int round = 0; round < 4; ++round) {
    for (core::EventIndex e = 0; e < events; ++e) {
      const core::IntervalIndex t = (e * 7 + round * 13) % intervals;
      if (!model.CanAssign(e, t)) continue;
      model.Apply(e, t);
      model.Unapply(e);
      pairs += 1.0;
    }
  }
  span.Attr("pairs", pairs);
}

// --- Workloads ------------------------------------------------------------------

/// Stamps a closed-loop request issued at \p issued as done now.
void Finish(const Tracer& tracer, const char* workload,
            Clock::time_point issued, Outcome& outcome) {
  const Clock::time_point done = Clock::now();
  outcome.due_ns = outcome.submit_ns = tracer.ToNs(issued);
  outcome.done_ns = tracer.ToNs(done);
  std::fprintf(stderr, "%s: request %lld %.3f s %s\n", workload,
               static_cast<long long>(outcome.id),
               std::chrono::duration<double>(done - issued).count(),
               outcome.error.empty() ? "ok" : outcome.error.c_str());
}

util::Status RunColdSolve(Tracer& tracer, uint64_t seed, double seconds,
                          const std::string& work, RunResult& result) {
  const std::string dir = work + "/instance";
  auto setup = SetupPaper(tracer, seed, dir, nullptr);
  if (!setup.ok()) return setup.status();
  result.setup_s.push_back(*setup);
  const double bytes = DirectoryBytes(dir);
  const std::optional<double> pinned = PinnedUtility("paper", seed, "grd/1");

  api::Scheduler scheduler(api::SchedulerOptions::ForSolverThreads(1));
  api::SolveRequest request;
  request.solver = "grd";
  request.options.k = kPaperShape.k;
  request.options.threads = 1;

  std::optional<core::SesInstance> last;  // kept for the traced probes
  PeakRss peak;
  peak.Start();
  const Clock::time_point start = Clock::now();
  for (int64_t id = 0;
       id == 0 ||
       std::chrono::duration<double>(Clock::now() - start).count() < seconds;
       ++id) {
    last.reset();
    const double rss_before = peak.Mark();
    Outcome outcome;
    outcome.id = id;
    const Clock::time_point issued = Clock::now();
    Tracer::Span root(tracer, "cold_solve.request", id);
    {
      Tracer::Span span(tracer, "instance_io.LoadInstance", id);
      auto instance = core::LoadInstance(dir);
      span.Attr("bytes", bytes);
      span.Attr("rss_delta_mb", StatusMb("VmHWM") - rss_before);
      if (instance.ok()) {
        last.emplace(std::move(instance).value());
      } else {
        outcome.error = "load: " + instance.status().ToString();
      }
    }
    if (outcome.error.empty()) {
      util::Status valid;
      {
        Tracer::Span span(tracer, "api.Scheduler.Validate", id);
        valid = scheduler.Validate(*last, request);
      }
      if (valid.ok()) {
        api::SolveResponse response;
        {
          Tracer::Span span(tracer, "api.Scheduler.Solve:grd", id);
          response = scheduler.Solve(*last, request);
          span.Attr("solver_s", response.wall_seconds);
          span.Attr("pops", static_cast<double>(response.stats.pops));
          span.Attr("updates", static_cast<double>(response.stats.updates));
          span.Attr("gain_evaluations",
                    static_cast<double>(response.stats.gain_evaluations));
        }
        outcome.error =
            response.status.ok()
                ? CheckSchedule(tracer, id, *last, response.schedule,
                                kPaperShape.k, response.utility, pinned)
                : "solve: " + response.status.ToString();
      } else {
        outcome.error = "validate: " + valid.ToString();
      }
    }
    root.End();
    Finish(tracer, "cold_solve", issued, outcome);
    result.requests.push_back(outcome);
  }
  result.peak_rss_mb = peak.PeakMb();

  if (tracer.enabled() && last.has_value()) {
    ProbeScoreGen(tracer, *last, kPaperShape.k);
    ProbeGainSweep(tracer, *last);
  }
  return util::Status::Ok();
}

util::Status RunHopBestfit(Tracer& tracer, uint64_t seed, double seconds,
                           const std::string& work, RunResult& result) {
  std::optional<core::SesInstance> instance;
  auto setup = SetupPaper(tracer, seed, work + "/instance", &instance);
  if (!setup.ok()) return setup.status();
  result.setup_s.push_back(*setup);
  const std::optional<double> pinned = PinnedUtility("paper", seed, "bestfit/1");

  auto solver = core::MakeSolver("bestfit");
  if (!solver.ok()) return solver.status();
  core::SolverOptions options;
  options.k = kPaperShape.k;

  PeakRss peak;
  peak.Start();
  const Clock::time_point start = Clock::now();
  for (int64_t id = 0;
       id == 0 ||
       std::chrono::duration<double>(Clock::now() - start).count() < seconds;
       ++id) {
    Outcome outcome;
    outcome.id = id;
    const Clock::time_point issued = Clock::now();
    Tracer::Span root(tracer, "hop_bestfit.request", id);
    std::optional<core::SolverResult> solved;
    {
      Tracer::Span span(tracer, "core.Solver.Solve:bestfit", id);
      auto solve = (*solver)->Solve(*instance, options);
      if (solve.ok()) {
        solved.emplace(std::move(solve).value());
        span.Attr("solver_s", solved->wall_seconds);
        span.Attr("pops", static_cast<double>(solved->stats.pops));
        span.Attr("updates", static_cast<double>(solved->stats.updates));
        span.Attr("gain_evaluations",
                  static_cast<double>(solved->stats.gain_evaluations));
      } else {
        outcome.error = "solve: " + solve.status().ToString();
      }
    }
    if (solved.has_value()) {
      outcome.error =
          solved->termination.ok()
              ? CheckSchedule(tracer, id, *instance, solved->assignments,
                              kPaperShape.k, solved->utility, pinned)
              : "solve: " + solved->termination.ToString();
    }
    root.End();
    Finish(tracer, "hop_bestfit", issued, outcome);
    result.requests.push_back(outcome);
  }
  result.peak_rss_mb = peak.PeakMb();

  if (tracer.enabled()) ProbeHops(tracer, *instance);
  return util::Status::Ok();
}

struct Planned {
  double due_s = 0.0;
  std::string solver;
  uint64_t solver_seed = 1;
  api::Priority priority = api::Priority::kNormal;
};

/// The whole open-loop plan, drawn from the workload seed before the clock
/// starts: exponential gaps at kServeRateHz, and the solver mix and the
/// three lanes in exact proportions, shuffled. Only the order and the
/// arrival times depend on the seed, not the composition.
std::vector<Planned> PlanArrivals(uint64_t seed, int64_t count) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x0b5e7e);
  std::vector<Planned> plan(static_cast<size_t>(count));
  size_t filled = 0;
  for (const MixEntry& entry : kServeMix) {
    const size_t share =
        &entry == &std::end(kServeMix)[-1]
            ? plan.size() - filled
            : static_cast<size_t>(std::llround(entry.weight * count));
    for (size_t i = 0; i < share; ++i, ++filled) {
      plan[filled].solver = entry.solver;
      plan[filled].solver_seed = 1 + i % entry.seeds;
    }
  }
  util::Shuffle(plan, rng);
  std::vector<api::Priority> lanes(plan.size());
  for (size_t i = 0; i < lanes.size(); ++i) {
    lanes[i] = static_cast<api::Priority>(i % api::kNumPriorityLanes);
  }
  util::Shuffle(lanes, rng);
  double due = 0.0;
  for (size_t i = 0; i < plan.size(); ++i) {
    due += -std::log1p(-rng.NextDouble()) / kServeRateHz;
    plan[i].due_s = due;
    plan[i].priority = lanes[i];
  }
  return plan;
}

std::string RequestKey(const std::string& solver, uint64_t seed) {
  return solver + "/" + std::to_string(seed);
}

api::SolveRequest MakeServeRequest(const Planned& p) {
  api::SolveRequest request;
  request.solver = p.solver;
  request.priority = p.priority;
  request.options.k = kServeShape.k;
  request.options.seed = p.solver_seed;
  return request;
}

util::Status RunServeOpen(Tracer& tracer, uint64_t seed, double seconds,
                          RunResult& result) {
  const size_t cores = std::max(2u, std::thread::hardware_concurrency());
  std::shared_ptr<const core::SesInstance> instance;
  std::unique_ptr<api::Scheduler> scheduler;
  for (int repeat = 0; repeat < kServeSetupRepeats; ++repeat) {
    scheduler.reset();
    instance.reset();
    Tracer::Span setup(tracer, "setup", -1);
    auto built = GenerateInstance(tracer, kServeShape, kServeInstanceSeed);
    if (!built.ok()) return built.status();
    instance = std::make_shared<const core::SesInstance>(
        std::move(built).value());
    api::SchedulerOptions options;
    options.num_threads = cores - 1;  // the submitter takes the last core
    scheduler = std::make_unique<api::Scheduler>(options);
    {
      Tracer::Span span(tracer, "api.Scheduler.LoadInstance", -1);
      if (util::Status status = scheduler->LoadInstance("serve", instance);
          !status.ok()) {
        return status;
      }
    }
    result.setup_s.push_back(setup.End());
  }

  const int64_t count = std::max<int64_t>(
      kServeMinRequests, std::llround(kServeRateHz * seconds));
  const std::vector<Planned> plan = PlanArrivals(seed, count);
  struct InFlight {
    Clock::time_point submit_start, submit_end, get_start, done;
    api::PendingSolve pending;
    api::SolveResponse response;
  };
  std::vector<InFlight> flights(plan.size());
  std::vector<size_t> outstanding;

  PeakRss peak;
  peak.Start();
  const Clock::time_point start = Clock::now();
  auto due_at = [&](size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(plan[i].due_s));
  };
  constexpr auto kPoll = std::chrono::microseconds(200);
  size_t next = 0;
  while (next < plan.size() || !outstanding.empty()) {
    if (next < plan.size() && Clock::now() >= due_at(next)) {
      InFlight& f = flights[next];
      f.submit_start = Clock::now();
      f.pending = scheduler->Submit("serve", MakeServeRequest(plan[next]));
      f.submit_end = Clock::now();
      outstanding.push_back(next++);
      continue;
    }
    for (size_t j = 0; j < outstanding.size();) {
      InFlight& f = flights[outstanding[j]];
      if (!f.pending.Ready()) {
        ++j;
        continue;
      }
      f.get_start = Clock::now();
      f.response = f.pending.Get();
      f.done = Clock::now();
      outstanding[j] = outstanding.back();
      outstanding.pop_back();
    }
    Clock::time_point wake = Clock::now() + kPoll;
    if (next < plan.size()) wake = std::min(wake, due_at(next));
    if (outstanding.empty() && next < plan.size()) wake = due_at(next);
    std::this_thread::sleep_until(wake);
  }
  result.peak_rss_mb = peak.PeakMb();
  std::fprintf(stderr, "serve_open: %zu requests in %.2f s\n", plan.size(),
               std::chrono::duration<double>(Clock::now() - start).count());

  // Verification, after the clock: one synchronous reference solve per
  // distinct request, checked from scratch, then every response against it.
  std::map<std::string, double> reference;
  Tracer::Span verify(tracer, "verify", -1);
  for (const Planned& p : plan) {
    const std::string key = RequestKey(p.solver, p.solver_seed);
    if (reference.count(key) != 0) continue;
    api::SolveResponse response;
    {
      Tracer::Span span(tracer, "api.Scheduler.Solve:" + p.solver, -1);
      response = scheduler->Solve("serve", MakeServeRequest(p));
    }
    if (!response.status.ok()) {
      return util::Status::Internal("reference " + key + ": " +
                                    response.status.ToString());
    }
    const std::string error =
        CheckSchedule(tracer, -1, *instance, response.schedule, kServeShape.k,
                      response.utility, PinnedUtility("serve", kServeInstanceSeed, key));
    if (!error.empty()) {
      return util::Status::Internal("reference " + key + ": " + error);
    }
    std::fprintf(stderr, "serve_open: reference %s utility %.6f\n",
                 key.c_str(), response.utility);
    reference[key] = response.utility;
  }
  for (size_t i = 0; i < plan.size(); ++i) {
    const InFlight& f = flights[i];
    const api::SolveResponse& response = f.response;
    Outcome outcome;
    outcome.id = static_cast<int64_t>(i);
    outcome.due_ns = tracer.ToNs(due_at(i));
    outcome.submit_ns = tracer.ToNs(f.submit_start);
    outcome.done_ns = tracer.ToNs(f.done);
    outcome.error =
        response.status.ok()
            ? CheckSchedule(
                  tracer, outcome.id, *instance, response.schedule,
                  kServeShape.k, response.utility,
                  reference[RequestKey(plan[i].solver, plan[i].solver_seed)],
                  /*recompute=*/false)
            : "solve: " + response.status.ToString();
    result.requests.push_back(outcome);

    const uint64_t root = tracer.Record("serve_open.request", outcome.id, 0,
                                        due_at(i), f.done);
    tracer.Record("api.Scheduler.Submit", outcome.id, root, f.submit_start,
                  f.submit_end);
    tracer.Record("api.PendingSolve.Get:" + plan[i].solver, outcome.id, root,
                  f.get_start, f.done,
                  {{"queue_s", response.queue_seconds},
                   {"solver_s", response.wall_seconds},
                   {"pops", static_cast<double>(response.stats.pops)},
                   {"updates", static_cast<double>(response.stats.updates)},
                   {"gain_evaluations",
                    static_cast<double>(response.stats.gain_evaluations)}});
  }
  verify.End();

  if (tracer.enabled()) ProbeScoreGen(tracer, *instance, kServeShape.k);
  return util::Status::Ok();
}

int Main(int argc, char** argv) {
  std::string workload;
  std::string work;
  std::string out;
  int64_t seed = 1;
  double seconds = 10.0;
  int64_t trace = 0;
  util::FlagSet flags("perfbench_driver");
  flags.AddString("workload", &workload,
                  "cold_solve, serve_open or hop_bestfit");
  flags.AddInt("seed", &seed, "workload seed (1 = the ROADMAP instance)");
  flags.AddDouble("seconds", &seconds, "measured seconds");
  flags.AddInt("trace", &trace, "1 records spans and runs the layer probes");
  flags.AddString("work", &work, "scratch directory for instance files");
  flags.AddString("out", &out, "raw results file (JSON)");
  if (util::Status status = flags.Parse(argc, argv); !status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 2;
  }
  if (seed < 0 || seconds <= 0.0 || work.empty() || out.empty()) {
    std::fprintf(stderr, "error: need --seed>=0, --seconds>0, --work, --out\n");
    return 2;
  }

  const double span_cost_ns = trace != 0 ? SpanCostNs() : 0.0;
  Tracer tracer(trace != 0);
  RunResult result;
  util::Status status;
  const uint64_t useed = static_cast<uint64_t>(seed);
  if (workload == "cold_solve") {
    status = RunColdSolve(tracer, useed, seconds, work, result);
  } else if (workload == "hop_bestfit") {
    status = RunHopBestfit(tracer, useed, seconds, work, result);
  } else if (workload == "serve_open") {
    status = RunServeOpen(tracer, useed, seconds, result);
  } else {
    std::fprintf(stderr, "error: unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  if (!WriteResults(out, workload, useed, result, tracer, span_cost_ns)) {
    std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
