#ifndef SES_BENCH_BENCH_COMMON_H_
#define SES_BENCH_BENCH_COMMON_H_

/// \file
/// Shared scaffolding for the figure-reproduction benches: dataset
/// construction at a configurable scale, sweep execution, and output.
///
/// Every figure binary accepts:
///   --scale=paper|medium|small   dataset + sweep size (default: medium)
///   --csv=PATH                   also dump the series as CSV
///   --csv-timing=BOOL            include the wall-clock seconds column
///                                in --csv output (default true; false
///                                makes reruns byte-identical)
///   --seed=N                     workload seed
///   --jobs=N                     lanes that build sweep points and run
///                                their solvers (0 = all cores, 1 = the
///                                calling thread only)
///
/// "paper" matches Section IV-A exactly (42,444 users, 16k-event catalog,
/// k up to 500). "medium" keeps the paper's *structure* (|T| = 3k/2,
/// |E| = 2k, competing mean 8.1, theta, xi, 25 locations) at roughly
/// quarter scale so the full suite completes in minutes on a laptop.

#include <string>
#include <vector>

#include "ebsn/generator.h"
#include "exp/figures.h"
#include "exp/sweep.h"
#include "exp/workload.h"
#include "util/flags.h"
#include "util/logging.h"

namespace ses::bench {

/// Scale-dependent knobs.
struct BenchScale {
  ebsn::SyntheticMeetupConfig dataset;
  /// k values for the k sweeps (Figs. 1a/1b).
  std::vector<int64_t> k_sweep;
  /// Default k for the |T| sweeps (Figs. 1c/1d); the paper uses 100.
  int64_t default_k = 100;
  /// |T| values as multiples of k, expressed in tenths (the paper sweeps
  /// k/5 .. 3k): {2, 5, 10, 15, 20, 30} -> 0.2k .. 3k.
  std::vector<int64_t> t_over_k_tenths{2, 5, 10, 15, 20, 30};
};

/// Whether \p name is a scale MakeScale knows.
inline bool IsKnownScale(const std::string& name) {
  return name == "paper" || name == "medium" || name == "small";
}

/// Resolves a named scale; ParseFigureArgs has already rejected unknown
/// names.
inline BenchScale MakeScale(const std::string& name) {
  BenchScale scale;
  if (name == "paper") {
    // Section IV-A: Meetup California scale.
    scale.dataset = ebsn::SyntheticMeetupConfig{};
    scale.k_sweep = {100, 200, 300, 400, 500};
    scale.default_k = 100;
    return scale;
  }
  if (name == "medium") {
    scale.dataset.num_users = 12000;
    scale.dataset.num_events = 6000;
    scale.dataset.num_groups = 800;
    scale.dataset.num_tags = 400;
    scale.k_sweep = {50, 100, 150, 200, 250};
    scale.default_k = 50;
    return scale;
  }
  if (name == "small") {
    scale.dataset.num_users = 2500;
    scale.dataset.num_events = 1500;
    scale.dataset.num_groups = 250;
    scale.dataset.num_tags = 200;
    scale.k_sweep = {20, 40, 60, 80, 100};
    scale.default_k = 20;
    return scale;
  }
  SES_LOG(kFatal) << "unknown --scale: " << name;
  return scale;
}

/// Flags shared by every figure bench.
struct FigureArgs {
  std::string scale = "medium";
  std::string csv;
  /// Append the non-deterministic seconds column to --csv output.
  bool csv_timing = true;
  int64_t seed = 7;
  /// Sweep lanes: 0 = every core, 1 = the calling thread only.
  int64_t jobs = 0;
  /// Intra-solver score-generation shards for top/grd/lazy/bestfit
  /// (1 = serial, 0 = all cores). Records and CSVs are bit-identical at
  /// any value; only the wall-clock seconds change.
  int64_t solver_threads = 1;
};

/// Parses the common flags; exits the process with usage on error.
///
/// Benches whose headline metric is wall-clock time should pass
/// \p default_jobs = 1: concurrent sweep points compete for cores and
/// inflate every RunRecord's `seconds`, so such benches measure on one
/// lane unless the user explicitly opts into --jobs != 1 (RunSweepPoints
/// warns on every parallel run that timings are contended).
inline FigureArgs ParseFigureArgs(const char* program, int argc,
                                  const char* const* argv,
                                  int64_t default_jobs = 0) {
  FigureArgs args;
  args.jobs = default_jobs;
  util::FlagSet flags(program);
  flags.AddString("scale", &args.scale, "paper|medium|small");
  flags.AddString("csv", &args.csv, "optional CSV output path");
  flags.AddBool("csv-timing", &args.csv_timing,
                "include the wall-clock seconds column in --csv output");
  flags.AddInt("seed", &args.seed, "workload seed");
  flags.AddInt("jobs", &args.jobs,
               "sweep lanes (0 = all cores, 1 = serial)");
  flags.AddInt("solver-threads", &args.solver_threads,
               "top/grd/lazy/bestfit score-generation shards (1 = serial, "
               "0 = all cores); records stay bit-identical");
  const util::Status status = flags.Parse(argc, argv);
  const std::string error =
      !status.ok() ? status.ToString()
      : !IsKnownScale(args.scale)
          ? "unknown --scale: " + args.scale + " (want paper|medium|small)"
      : args.jobs < 0           ? "--jobs must be >= 0"
      : args.solver_threads < 0 ? "--solver-threads must be >= 0"
                                : "";
  if (!error.empty()) {
    SES_LOG(kError) << error;
    std::fputs(flags.Usage().c_str(), stderr);
    std::exit(2);
  }
  return args;
}

/// Runs \p points through exp::RunSweep on \p jobs lanes (0 = all
/// cores, 1 = serial) and fails loudly on any error. Every jobs value
/// yields identical records (modulo the wall-clock `seconds` field) in
/// point order.
inline std::vector<exp::RunRecord> RunSweepPoints(
    const exp::WorkloadFactory& factory,
    const std::vector<exp::SweepPoint>& points,
    const std::vector<std::string>& solvers, int64_t jobs) {
  if (jobs != 1) {
    // The utility/evaluation fields stay byte-identical, but concurrent
    // points and the solvers within each point contend for cores, so
    // any reported or CSV-dumped seconds are inflated relative to a
    // serial run. --jobs=1 runs every point and solver one after
    // another on the calling thread.
    SES_LOG(kWarning) << "--jobs=" << jobs << ": per-record seconds are "
                      << "measured under multi-core contention; use "
                      << "--jobs=1 for clean timings";
  }
  auto records =
      exp::RunSweep(factory, points, solvers, static_cast<size_t>(jobs));
  SES_CHECK(records.ok()) << records.status().ToString();
  return std::move(records).value();
}

/// Runs the paper methods over a k sweep (Figs. 1a/1b).
inline std::vector<exp::RunRecord> RunKSweep(
    const exp::WorkloadFactory& factory, const BenchScale& scale,
    const std::vector<std::string>& solvers, uint64_t seed,
    int64_t jobs, int64_t solver_threads = 1) {
  std::vector<exp::SweepPoint> points;
  points.reserve(scale.k_sweep.size());
  for (int64_t k : scale.k_sweep) {
    exp::SweepPoint point;
    point.config.k = k;
    point.config.seed = seed + static_cast<uint64_t>(k);
    point.options.k = k;
    point.options.seed = seed;
    point.options.threads = solver_threads;
    point.x = k;
    points.push_back(std::move(point));
  }
  return RunSweepPoints(factory, points, solvers, jobs);
}

/// Runs the paper methods over a |T| sweep at fixed k (Figs. 1c/1d).
inline std::vector<exp::RunRecord> RunTSweep(
    const exp::WorkloadFactory& factory, const BenchScale& scale,
    const std::vector<std::string>& solvers, uint64_t seed,
    int64_t jobs, int64_t solver_threads = 1) {
  std::vector<exp::SweepPoint> points;
  points.reserve(scale.t_over_k_tenths.size());
  for (int64_t tenths : scale.t_over_k_tenths) {
    const int64_t intervals =
        std::max<int64_t>(1, scale.default_k * tenths / 10);
    exp::SweepPoint point;
    point.config.k = scale.default_k;
    point.config.num_intervals = intervals;
    point.config.seed = seed + static_cast<uint64_t>(intervals);
    point.options.k = scale.default_k;
    point.options.seed = seed;
    point.options.threads = solver_threads;
    point.x = intervals;
    points.push_back(std::move(point));
  }
  return RunSweepPoints(factory, points, solvers, jobs);
}

/// Writes the optional CSV and prints the rendered figure.
inline void EmitFigure(const FigureArgs& args, const std::string& title,
                       const std::string& x_label,
                       const std::vector<std::string>& solvers,
                       const std::vector<exp::RunRecord>& records,
                       exp::Metric metric) {
  if (!args.csv.empty()) {
    auto status = exp::WriteRecordsCsv(args.csv, records,
                                       args.csv_timing
                                           ? exp::CsvTiming::kAppend
                                           : exp::CsvTiming::kOmit);
    if (!status.ok()) {
      SES_LOG(kError) << status.ToString();
    }
  }
  std::fputs(exp::RenderFigure(title, x_label, solvers, records, metric)
                 .c_str(),
             stdout);
}

}  // namespace ses::bench

#endif  // SES_BENCH_BENCH_COMMON_H_
