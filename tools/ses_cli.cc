/// ses_cli — command-line front end for the whole library.
///
/// Subcommands:
///   generate-data --out=DIR [--users=N --events=N --groups=N --tags=N
///                  --seed=N]
///       Synthesizes a Meetup-like EBSN dataset and saves it as CSV.
///
///   build-instance --data=DIR --out=DIR [--k=N --intervals=N --events=N
///                  --competing-mean=X --seed=N]
///       Builds the paper's Section IV-A workload from a dataset and
///       persists the SES instance.
///
///   solve --instance=DIR [--solver=grd --k=N --seed=N --solver-threads=N
///         --budget-seconds=X --priority=normal --max-queued=N
///         --print-schedule --metrics]
///       Loads an instance into the scheduler's session cache, submits a
///       solve against it by id through ses::api::Scheduler (at the
///       requested queue priority, under the requested admission bound),
///       prints the schedule summary. --solver-threads shards score
///       generation (0 = all cores; the schedule is bit-identical at any
///       value) and --print-schedule prints every assignment. With a
///       budget, an expired deadline still prints the best schedule found
///       so far. --metrics appends the scheduler's full metric dump
///       (docs/METRICS.md).
///
///   metrics [--instance=DIR --solver=grd --k=N --requests=N
///           --format=text|csv]
///       Dumps the scheduler metric catalog. Without --instance: a fresh
///       scheduler's registry (every metric name, all zeros — the
///       reference list docs/METRICS.md mirrors). With --instance: runs
///       --requests solves against it (priorities cycled high/normal/
///       batch) first, so the dump shows live values.
///
///   info --instance=DIR | --data=DIR
///       Prints shape statistics for an instance or a dataset; for an
///       instance, also how many distinct interest rows (profiles) its
///       candidate and competing rows hold.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "api/scheduler.h"
#include "core/instance_io.h"
#include "core/objective.h"
#include "core/validate.h"
#include "ebsn/dataset.h"
#include "ebsn/dataset_stats.h"
#include "ebsn/generator.h"
#include "exp/workload.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace {

using namespace ses;

int Fail(const util::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int CmdGenerateData(int argc, const char* const* argv) {
  std::string out;
  int64_t users = 42444;
  int64_t events = 16000;
  int64_t groups = 1500;
  int64_t tags = 600;
  int64_t seed = 20180416;
  util::FlagSet flags("ses_cli generate-data");
  flags.AddString("out", &out, "output directory (created)");
  flags.AddInt("users", &users, "number of users");
  flags.AddInt("events", &events, "catalog size");
  flags.AddInt("groups", &groups, "number of groups");
  flags.AddInt("tags", &tags, "tag vocabulary size");
  flags.AddInt("seed", &seed, "generator seed");
  if (auto status = flags.Parse(argc, argv); !status.ok()) {
    return Fail(status);
  }
  if (out.empty()) {
    return Fail(util::Status::InvalidArgument("--out is required"));
  }
  ebsn::SyntheticMeetupConfig config;
  // The sizes land in uint32_t fields, so check them before the cast can
  // wrap. Every group draws up to group_tags_max distinct tags, which
  // puts a floor under the vocabulary.
  const struct {
    const char* name;
    int64_t value;
    int64_t min;
  } sizes[] = {{"users", users, 1},
               {"events", events, 0},
               {"groups", groups, 1},
               {"tags", tags, config.group_tags_max}};
  for (const auto& size : sizes) {
    if (size.value < size.min || size.value > int64_t{UINT32_MAX}) {
      return Fail(util::Status::InvalidArgument(
          "--" + std::string(size.name) + " must be in [" +
          std::to_string(size.min) + ", " + std::to_string(UINT32_MAX) +
          "] (got " + std::to_string(size.value) + ")"));
    }
  }
  config.num_users = static_cast<uint32_t>(users);
  config.num_events = static_cast<uint32_t>(events);
  config.num_groups = static_cast<uint32_t>(groups);
  config.num_tags = static_cast<uint32_t>(tags);
  config.seed = static_cast<uint64_t>(seed);
  const ebsn::EbsnDataset dataset = ebsn::GenerateSyntheticMeetup(config);
  std::filesystem::create_directories(out);
  if (auto status = dataset.Save(out); !status.ok()) return Fail(status);
  std::printf("wrote dataset to %s\n%s", out.c_str(),
              ebsn::ComputeDatasetStats(dataset).ToString().c_str());
  return 0;
}

int CmdBuildInstance(int argc, const char* const* argv) {
  std::string data;
  std::string out;
  int64_t k = 100;
  int64_t intervals = -1;
  int64_t events = -1;
  double competing_mean = 8.1;
  int64_t seed = 7;
  util::FlagSet flags("ses_cli build-instance");
  flags.AddString("data", &data, "dataset directory");
  flags.AddString("out", &out, "output instance directory (created)");
  flags.AddInt("k", &k, "target schedule size");
  flags.AddInt("intervals", &intervals, "|T| (-1 = paper default 3k/2)");
  flags.AddInt("events", &events, "|E| (-1 = paper default 2k)");
  flags.AddDouble("competing-mean", &competing_mean,
                  "competing events per interval, mean");
  flags.AddInt("seed", &seed, "workload seed");
  if (auto status = flags.Parse(argc, argv); !status.ok()) {
    return Fail(status);
  }
  if (data.empty() || out.empty()) {
    return Fail(
        util::Status::InvalidArgument("--data and --out are required"));
  }
  auto dataset = ebsn::EbsnDataset::Load(data);
  if (!dataset.ok()) return Fail(dataset.status());

  exp::WorkloadFactory factory(dataset.value());
  exp::PaperWorkloadConfig config;
  config.k = k;
  config.num_intervals = intervals;
  config.num_candidate_events = events;
  config.competing_mean = competing_mean;
  config.seed = static_cast<uint64_t>(seed);
  auto instance = factory.Build(config);
  if (!instance.ok()) return Fail(instance.status());

  std::filesystem::create_directories(out);
  if (auto status = core::SaveInstance(
          *instance, exp::WorkloadSigma(config.seed), out);
      !status.ok()) {
    return Fail(status);
  }
  std::printf("wrote instance to %s: |U|=%u |E|=%u |T|=%u |C|=%u\n",
              out.c_str(), instance->num_users(), instance->num_events(),
              instance->num_intervals(), instance->num_competing());
  return 0;
}

int CmdSolve(int argc, const char* const* argv) {
  std::string instance_dir;
  std::string solver_name = "grd";
  std::string priority_name = "normal";
  int64_t k = 100;
  int64_t seed = 1;
  int64_t solver_threads = 1;
  int64_t max_queued = 0;
  double budget_seconds = 0.0;
  bool print_schedule = false;
  bool print_metrics = false;
  util::FlagSet flags("ses_cli solve");
  flags.AddString("instance", &instance_dir, "instance directory");
  flags.AddString("solver", &solver_name,
                  "solver name (see `ses_cli solve --solver=help`)");
  flags.AddString("priority", &priority_name,
                  "queue priority: high, normal, or batch");
  flags.AddInt("k", &k, "schedule size");
  flags.AddInt("seed", &seed, "solver seed");
  flags.AddInt("solver-threads", &solver_threads,
               "score-generation shards for top/grd/lazy/bestfit (1 = "
               "serial, 0 = all cores); the schedule is bit-identical at any "
               "value");
  flags.AddInt("max-queued", &max_queued,
               "admission bound on queued requests (0 = unbounded); a "
               "full queue fails fast with RESOURCE_EXHAUSTED");
  flags.AddDouble("budget-seconds", &budget_seconds,
                  "wall-clock budget; 0 = unlimited");
  flags.AddBool("print-schedule", &print_schedule,
                "print every assignment");
  flags.AddBool("metrics", &print_metrics,
                "print the scheduler's metric dump after the solve "
                "(see docs/METRICS.md)");
  if (auto status = flags.Parse(argc, argv); !status.ok()) {
    return Fail(status);
  }
  if (instance_dir.empty()) {
    return Fail(util::Status::InvalidArgument("--instance is required"));
  }
  if (solver_threads < 0) {
    return Fail(
        util::Status::InvalidArgument("--solver-threads must be >= 0"));
  }
  if (budget_seconds < 0.0) {
    return Fail(
        util::Status::InvalidArgument("--budget-seconds must be >= 0"));
  }
  if (max_queued < 0) {
    return Fail(util::Status::InvalidArgument("--max-queued must be >= 0"));
  }
  api::Priority priority = api::Priority::kNormal;
  if (priority_name == "high") {
    priority = api::Priority::kHigh;
  } else if (priority_name == "batch") {
    priority = api::Priority::kBatch;
  } else if (priority_name != "normal") {
    return Fail(util::Status::InvalidArgument(
        "--priority must be high, normal, or batch (got '" + priority_name +
        "')"));
  }
  auto instance = core::LoadInstance(instance_dir);
  if (!instance.ok()) return Fail(instance.status());

  // The scheduler pool doubles as the score-generation shard pool; size
  // it to the requested intra-solver parallelism (0 = all cores, N
  // capped at the core count — the shared ForSolverThreads policy).
  api::SchedulerOptions scheduler_options =
      api::SchedulerOptions::ForSolverThreads(solver_threads);
  scheduler_options.max_queued_requests = static_cast<size_t>(max_queued);
  api::Scheduler scheduler(scheduler_options);
  api::SolveRequest request;
  request.solver = solver_name;
  request.priority = priority;
  request.options.k = k;
  request.options.seed = static_cast<uint64_t>(seed);
  request.options.threads = solver_threads;
  if (budget_seconds > 0.0) {
    request.deadline = core::Deadline::After(budget_seconds);
  }
  if (auto status = scheduler.Validate(*instance, request); !status.ok()) {
    if (status.code() == util::StatusCode::kNotFound) {
      // Unknown solver: spell out the catalog so the fix is one retry.
      std::fprintf(stderr, "error: unknown solver '%s'\nvalid solvers:\n",
                   solver_name.c_str());
      for (const std::string& name : api::ListSolvers()) {
        std::fprintf(stderr, "  %s\n", name.c_str());
      }
      return 1;
    }
    return Fail(status);
  }

  // The service-shell path end to end: register the instance in the
  // session cache (non-owning borrow; `instance` outlives the solve),
  // submit against its id at the requested priority, collect the
  // response. Admission and priority only matter with concurrent
  // clients, but the CLI exercising the same surface keeps it honest.
  if (auto status =
          scheduler.LoadInstance("cli", api::BorrowInstance(*instance));
      !status.ok()) {
    return Fail(status);
  }
  api::PendingSolve pending = scheduler.Submit("cli", std::move(request));
  const api::SolveResponse response = pending.Get();
  if (!response.has_schedule()) return Fail(response.status);
  if (auto status = core::ValidateAssignments(*instance, response.schedule);
      !status.ok()) {
    return Fail(status);
  }

  if (!response.status.ok()) {
    // Deadline expired (or cancelled): the schedule below is the best
    // found within the budget, not the solver's final answer.
    std::printf("note: %s; reporting best schedule found so far\n",
                response.status.ToString().c_str());
  }
  std::printf("solver=%s k=%zu utility=%.17g seconds=%.4f evaluations=%llu\n",
              response.solver.c_str(), response.schedule.size(),
              response.utility, response.wall_seconds,
              static_cast<unsigned long long>(
                  response.stats.gain_evaluations));
  if (print_schedule) {
    for (const core::Assignment& a : response.schedule) {
      std::printf("  interval %u <- event %u\n", a.interval, a.event);
    }
  }
  if (print_metrics) {
    std::printf("--- scheduler metrics ---\n%s",
                util::RenderMetricsText(
                    scheduler.metric_registry().Snapshot())
                    .c_str());
  }
  return 0;
}

int CmdMetrics(int argc, const char* const* argv) {
  std::string instance_dir;
  std::string solver_name = "grd";
  std::string format = "text";
  int64_t k = 100;
  int64_t requests = 6;
  util::FlagSet flags("ses_cli metrics");
  flags.AddString("instance", &instance_dir,
                  "instance directory (omit to dump the metric catalog "
                  "of a fresh scheduler, all zeros)");
  flags.AddString("solver", &solver_name, "solver to exercise");
  flags.AddString("format", &format, "dump format: text or csv");
  flags.AddInt("k", &k, "schedule size for the exercise solves");
  flags.AddInt("requests", &requests,
               "solves to run before dumping (priorities cycled "
               "high/normal/batch)");
  if (auto status = flags.Parse(argc, argv); !status.ok()) {
    return Fail(status);
  }
  if (format != "text" && format != "csv") {
    return Fail(util::Status::InvalidArgument(
        "--format must be text or csv (got '" + format + "')"));
  }
  if (requests < 0) {
    return Fail(util::Status::InvalidArgument("--requests must be >= 0"));
  }

  api::Scheduler scheduler;
  if (!instance_dir.empty()) {
    auto instance = core::LoadInstance(instance_dir);
    if (!instance.ok()) return Fail(instance.status());
    if (auto status =
            scheduler.LoadInstance("cli", api::BorrowInstance(*instance));
        !status.ok()) {
      return Fail(status);
    }
    // Exercise the async path so queue-wait histograms and lane
    // counters show real traffic, cycling through the three lanes.
    std::vector<api::SolveRequest> batch;
    batch.reserve(static_cast<size_t>(requests));
    for (int64_t i = 0; i < requests; ++i) {
      api::SolveRequest request;
      request.solver = solver_name;
      request.options.k = k;
      request.options.seed = static_cast<uint64_t>(i + 1);
      request.priority = static_cast<api::Priority>(i % 3);
      batch.push_back(std::move(request));
    }
    for (const api::SolveResponse& response :
         scheduler.SolveBatch("cli", batch)) {
      if (!response.has_schedule()) return Fail(response.status);
    }
  }

  const util::MetricsSnapshot snapshot =
      scheduler.metric_registry().Snapshot();
  std::printf("%s", format == "csv"
                        ? util::RenderMetricsCsv(snapshot).c_str()
                        : util::RenderMetricsText(snapshot).c_str());
  return 0;
}

int CmdInfo(int argc, const char* const* argv) {
  std::string instance_dir;
  std::string data_dir;
  util::FlagSet flags("ses_cli info");
  flags.AddString("instance", &instance_dir, "instance directory");
  flags.AddString("data", &data_dir, "dataset directory");
  if (auto status = flags.Parse(argc, argv); !status.ok()) {
    return Fail(status);
  }
  if (!data_dir.empty()) {
    auto dataset = ebsn::EbsnDataset::Load(data_dir);
    if (!dataset.ok()) return Fail(dataset.status());
    std::printf("%s",
                ebsn::ComputeDatasetStats(dataset.value()).ToString().c_str());
    return 0;
  }
  if (!instance_dir.empty()) {
    auto instance = core::LoadInstance(instance_dir);
    if (!instance.ok()) return Fail(instance.status());
    // Distinct profiles among the candidate rows, then the competing.
    std::vector<bool> seen(instance->num_profiles(), false);
    uint32_t event_profiles = 0;
    for (core::EventIndex e = 0; e < instance->num_events(); ++e) {
      event_profiles += !seen[instance->EventProfile(e)];
      seen[instance->EventProfile(e)] = true;
    }
    std::fill(seen.begin(), seen.end(), false);
    size_t competing_entries = 0;
    uint32_t competing_profiles = 0;
    for (core::CompetingIndex c = 0; c < instance->num_competing(); ++c) {
      competing_entries += instance->CompetingUsers(c).size();
      competing_profiles += !seen[instance->CompetingProfile(c)];
      seen[instance->CompetingProfile(c)] = true;
    }
    std::printf(
        "|U|=%u |E|=%u |T|=%u |C|=%u theta=%.2f\n"
        "candidate interest entries: %zu\n"
        "competing interest entries: %zu\n"
        "candidate rows: %u -> %u profiles\n"
        "competing rows: %u -> %u profiles\n"
        "profiles: %u\n",
        instance->num_users(), instance->num_events(),
        instance->num_intervals(), instance->num_competing(),
        instance->theta(), instance->num_interest_entries(),
        competing_entries, instance->num_events(), event_profiles,
        instance->num_competing(), competing_profiles,
        instance->num_profiles());
    return 0;
  }
  return Fail(
      util::Status::InvalidArgument("pass --instance or --data"));
}

void PrintUsage() {
  std::fputs(
      "usage: ses_cli <command> [flags]\n"
      "commands:\n"
      "  generate-data   synthesize a Meetup-like EBSN dataset\n"
      "  build-instance  build the paper workload from a dataset\n"
      "  solve           run a solver on a stored instance\n"
      "  metrics         dump the scheduler metric catalog / live values\n"
      "  info            describe a dataset or instance\n",
      stderr);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 2;
  }
  const std::string command = argv[1];
  // Shift argv so each subcommand parses only its own flags.
  const int sub_argc = argc - 1;
  const char* const* sub_argv = argv + 1;
  if (command == "generate-data") return CmdGenerateData(sub_argc, sub_argv);
  if (command == "build-instance") return CmdBuildInstance(sub_argc, sub_argv);
  if (command == "solve") return CmdSolve(sub_argc, sub_argv);
  if (command == "metrics") return CmdMetrics(sub_argc, sub_argv);
  if (command == "info") return CmdInfo(sub_argc, sub_argv);
  PrintUsage();
  return 2;
}
