/// Ablation (extension beyond the paper): the full solver ladder on one
/// paper-default workload, aggregated over repeated seeds — where does
/// each algorithmic idea land between RAND and GRD?
///
///   rand     random valid assignments (paper baseline)
///   top      stale global ranking, no updates (paper baseline)
///   bestfit  event-major greedy: stale event order, fresh intervals
///   grd      the paper's pair-major greedy with updates
///   lazy     GRD under its second registered name (core/greedy.h)
///
/// Expected order: rand ~ top < bestfit <= grd = lazy, with bestfit
/// recovering most of GRD's advantage at a fraction of the evaluations.

#include <cstdio>

#include "bench/bench_common.h"
#include "exp/sweep.h"

int main(int argc, char** argv) {
  using namespace ses;
  const bench::FigureArgs args =
      bench::ParseFigureArgs("ablation_solver_ladder", argc, argv,
                             /*default_jobs=*/1);
  const bench::BenchScale scale = bench::MakeScale(args.scale);

  std::printf("Ablation — solver ladder (scale=%s, k=%lld, 3 seeds)\n",
              args.scale.c_str(), static_cast<long long>(scale.default_k));
  const ebsn::EbsnDataset dataset =
      ebsn::GenerateSyntheticMeetup(scale.dataset);
  const exp::WorkloadFactory factory(dataset);

  const std::vector<std::string> ladder{"rand", "top", "bestfit", "grd",
                                        "lazy"};
  if (args.jobs != 1) {
    // This bench renders a seconds table, so contended timings matter.
    SES_LOG(kWarning) << "--jobs=" << args.jobs << ": the seconds table "
                      << "is measured under multi-core contention; use "
                      << "--jobs=1 for clean timings";
  }
  const int64_t default_k = scale.default_k;
  auto cells = exp::RunRepeatedSweep(
      factory, {default_k},
      [](int64_t x, uint64_t seed) {
        exp::PaperWorkloadConfig config;
        config.k = x;
        config.seed = seed;
        return config;
      },
      ladder, /*repetitions=*/3, static_cast<uint64_t>(args.seed),
      static_cast<size_t>(args.jobs), args.solver_threads);
  SES_CHECK(cells.ok()) << cells.status().ToString();

  std::fputs(exp::RenderSweepTable("Solver ladder: utility", "k", ladder,
                                   *cells, /*show_seconds=*/false)
                 .c_str(),
             stdout);
  std::fputs(exp::RenderSweepTable("Solver ladder: seconds", "k", ladder,
                                   *cells, /*show_seconds=*/true)
                 .c_str(),
             stdout);
  return 0;
}
