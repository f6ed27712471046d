/// Ablation (extension beyond the paper): GRD vs the solver registered
/// as "lazy". Lazy was a CELF-style variant; it now runs GRD under its
/// own name (core/greedy.h). The table reports utility and Eq. 4
/// evaluations, which must match, and wall time, whose two columns show
/// run-to-run spread.

#include <cstdio>

#include "bench/bench_common.h"
#include "util/string_util.h"

int main(int argc, char** argv) {
  using namespace ses;
  const bench::FigureArgs args =
      bench::ParseFigureArgs("ablation_lazy_greedy", argc, argv,
                             /*default_jobs=*/1);
  const bench::BenchScale scale = bench::MakeScale(args.scale);

  std::printf("Ablation — GRD vs lazy greedy (scale=%s)\n",
              args.scale.c_str());
  const ebsn::EbsnDataset dataset =
      ebsn::GenerateSyntheticMeetup(scale.dataset);
  const exp::WorkloadFactory factory(dataset);

  std::printf("%8s %14s %14s %12s %12s %14s %14s\n", "k", "grd-utility",
              "lazy-utility", "grd-sec", "lazy-sec", "grd-evals",
              "lazy-evals");
  // Same point construction and seeding as the fig1a/1b sweeps, so the
  // numbers stay comparable across benches.
  const std::vector<std::string> solvers{"grd", "lazy"};
  const std::vector<exp::RunRecord> rows = bench::RunKSweep(
      factory, scale, solvers, static_cast<uint64_t>(args.seed), args.jobs,
      args.solver_threads);
  for (size_t i = 0; i < scale.k_sweep.size(); ++i) {
    const int64_t k = scale.k_sweep[i];
    // RunSweep emits solvers.size() records per point, in solver-list
    // order.
    const exp::RunRecord& grd = rows[solvers.size() * i];
    const exp::RunRecord& lazy = rows[solvers.size() * i + 1];
    std::printf("%8lld %14.2f %14.2f %12.4f %12.4f %14s %14s\n",
                static_cast<long long>(k), grd.utility, lazy.utility,
                grd.measurement.seconds, lazy.measurement.seconds,
                util::WithThousandsSep(
                    static_cast<int64_t>(grd.gain_evaluations))
                    .c_str(),
                util::WithThousandsSep(
                    static_cast<int64_t>(lazy.gain_evaluations))
                    .c_str());
  }
  return 0;
}
