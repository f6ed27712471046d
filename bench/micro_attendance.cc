/// Microbenchmarks of the attendance-model kernels: Eq. 4 marginal-gain
/// evaluation, Apply, interval-scratch reloads, the greedy family's
/// update pass, the reference objective, the score-grid fill (also on an
/// instance without twins), and the raw SoA span kernels
/// (core/kernels.h) the model and the fill are built on.
/// google-benchmark binary; `tools/run_benchmarks.py` wraps it into the
/// canonical BENCH_micro_attendance.json.

#include <cstdint>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/attendance.h"
#include "core/instance.h"
#include "core/kernels.h"
#include "core/objective.h"
#include "core/score_gen.h"
#include "core/solve_context.h"
#include "core/solver.h"
#include "ebsn/generator.h"
#include "exp/workload.h"
#include "util/logging.h"
#include "util/random.h"

namespace {

using namespace ses;

/// Builds one mid-sized instance shared by all attendance benchmarks.
const core::SesInstance& BenchInstance() {
  static const core::SesInstance* instance = [] {
    util::SetLogLevel(util::LogLevel::kWarning);
    ebsn::SyntheticMeetupConfig dataset_config;
    dataset_config.num_users = 5000;
    dataset_config.num_events = 2000;
    dataset_config.num_groups = 300;
    dataset_config.num_tags = 250;
    dataset_config.seed = 1;
    static const ebsn::EbsnDataset dataset =
        ebsn::GenerateSyntheticMeetup(dataset_config);
    static const exp::WorkloadFactory factory(dataset);
    exp::PaperWorkloadConfig config;
    config.k = 40;
    config.seed = 2;
    auto built = factory.Build(config);
    SES_CHECK(built.ok()) << built.status().ToString();
    return new core::SesInstance(std::move(built).value());
  }();
  return *instance;
}

void BM_MarginalGainSameInterval(benchmark::State& state) {
  const core::SesInstance& instance = BenchInstance();
  core::AttendanceModel model(instance);
  core::EventIndex e = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.MarginalGain(e, 0));
    e = (e + 1) % instance.num_events();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MarginalGainSameInterval);

void BM_MarginalGainIntervalSwitch(benchmark::State& state) {
  const core::SesInstance& instance = BenchInstance();
  core::AttendanceModel model(instance);
  core::IntervalIndex t = 0;
  for (auto _ : state) {
    // Alternating intervals forces a scratch reload every call — the
    // worst case for the dense-scratch design.
    benchmark::DoNotOptimize(model.MarginalGain(0, t));
    t = (t + 1) % instance.num_intervals();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MarginalGainIntervalSwitch);

void BM_ApplyUnapply(benchmark::State& state) {
  const core::SesInstance& instance = BenchInstance();
  core::AttendanceModel model(instance);
  for (auto _ : state) {
    model.Apply(0, 0);
    model.Unapply(0);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ApplyUnapply);

/// One update pass of the greedy family (AttendanceModel::RescoreRow)
/// at interval 0 after three events were placed there, so M != 0 for
/// their users. Each pass lists every event, as GRD's does, and the
/// interval stays loaded, so it scores every distinct profile among the
/// events that still fit. Items are the cells rescored, twins included.
void BM_RescoreRow(benchmark::State& state) {
  const core::SesInstance& instance = BenchInstance();
  core::AttendanceModel model(instance);
  for (core::EventIndex e = 0;
       e < instance.num_events() && model.schedule().size() < 3; ++e) {
    if (model.CanAssign(e, 0)) model.Apply(e, 0);
  }
  std::vector<double> row(instance.num_events());
  std::vector<core::EventIndex> every_event(instance.num_events());
  std::iota(every_event.begin(), every_event.end(), 0u);
  uint64_t cells = 0;
  for (auto _ : state) {
    cells += model.RescoreRow(0, row, every_event);
    benchmark::DoNotOptimize(row.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(cells));
}
BENCHMARK(BM_RescoreRow);

void BM_ReferenceTotalUtility(benchmark::State& state) {
  const core::SesInstance& instance = BenchInstance();
  core::Schedule schedule(instance);
  // Schedule ~20 events round-robin over intervals.
  core::IntervalIndex t = 0;
  for (core::EventIndex e = 0; e < instance.num_events() &&
                               schedule.size() < 20;
       ++e) {
    if (schedule.CanAssign(e, t)) {
      SES_CHECK(schedule.Assign(e, t).ok());
      t = (t + 1) % instance.num_intervals();
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::TotalUtility(instance, schedule));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ReferenceTotalUtility);

/// The per-pair model sweep: every (event, interval) pair through
/// MarginalGain on one fresh model. Score generation takes this path
/// only at warm-started intervals; BM_GenerateAssignmentScores times
/// the blocked fill the solvers run.
void BM_InitialScoreGeneration(benchmark::State& state) {
  const core::SesInstance& instance = BenchInstance();
  for (auto _ : state) {
    core::AttendanceModel model(instance);
    double sum = 0.0;
    for (core::IntervalIndex t = 0; t < instance.num_intervals(); ++t) {
      for (core::EventIndex e = 0; e < instance.num_events(); ++e) {
        sum += model.MarginalGain(e, t);
      }
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(BenchInstance().num_events()) *
      BenchInstance().num_intervals());
}
BENCHMARK(BM_InitialScoreGeneration);

/// BenchInstance's shape (5,000 users, |E| = 80, |T| = 60, 8 competing
/// events per interval) with every interest row drawn independently, so
/// no two events are twins: the fill gains nothing from profiles there
/// and pays for them.
const core::SesInstance& TwinFreeInstance() {
  static const core::SesInstance* instance = [] {
    constexpr uint32_t kUsers = 5000;
    constexpr uint32_t kEvents = 80;
    constexpr uint32_t kIntervals = 60;
    constexpr uint32_t kCompetingPerInterval = 8;
    util::Rng rng(5);
    auto random_row = [&rng] {
      std::vector<std::pair<core::UserIndex, float>> row;
      for (core::UserIndex u = 0; u < kUsers; ++u) {
        if (rng.Bernoulli(0.3)) {
          row.push_back({u, static_cast<float>(rng.UniformDouble(0.05, 1.0))});
        }
      }
      return row;
    };
    core::InstanceBuilder builder;
    builder.SetNumUsers(kUsers)
        .SetNumIntervals(kIntervals)
        .SetTheta(20.0)
        .SetSigma(std::make_shared<core::HashUniformSigma>(3));
    for (uint32_t e = 0; e < kEvents; ++e) {
      builder.AddEvent(e % 25, 1.0 + e % 5, random_row());
    }
    for (uint32_t c = 0; c < kIntervals * kCompetingPerInterval; ++c) {
      builder.AddCompetingEvent(c / kCompetingPerInterval, random_row());
    }
    auto built = builder.Build();
    SES_CHECK(built.ok()) << built.status().ToString();
    return new core::SesInstance(std::move(built).value());
  }();
  return *instance;
}

/// The grid fill every greedy solver reads (Algorithm 1 lines 2-4):
/// GenerateAssignmentScores with no warm start at threads 1, so every
/// interval is scored in 4-interval blocks.
void GenerateScores(benchmark::State& state,
                    const core::SesInstance& instance) {
  core::SolverOptions options;
  options.threads = 1;
  const int64_t pairs = static_cast<int64_t>(instance.num_events()) *
                        instance.num_intervals();
  std::vector<double> scores(static_cast<size_t>(pairs), 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::GenerateAssignmentScores(
        instance, options, core::SolveContext(), scores));
    benchmark::DoNotOptimize(scores.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * pairs);
}

void BM_GenerateAssignmentScores(benchmark::State& state) {
  GenerateScores(state, BenchInstance());
}
BENCHMARK(BM_GenerateAssignmentScores);

void BM_GenerateAssignmentScoresTwinFree(benchmark::State& state) {
  GenerateScores(state, TwinFreeInstance());
}
BENCHMARK(BM_GenerateAssignmentScoresTwinFree);

// --------------------------------------------------------------------
// Raw kernel benchmarks: the span loops in isolation, no model, no
// virtual dispatch — what the auto-vectorizer actually emits.
// --------------------------------------------------------------------

/// Shared dense-row fixture: |row| = kKernelUsers consecutive users
/// with warm SoA state, the shape LuceGain sees on paper-scale rows.
constexpr uint32_t kKernelUsers = 4096;

struct KernelFixture {
  core::IntervalSoA soa{kKernelUsers};
  /// The same users over kWidth intervals with no scheduled event.
  core::IntervalBlock block{kKernelUsers};
  std::vector<core::UserIndex> users;
  std::vector<float> values;

  KernelFixture() {
    users.reserve(kKernelUsers);
    values.reserve(kKernelUsers);
    core::kernels::FillSigmaHash(7, 0, soa.sigma);
    for (core::UserIndex u = 0; u < kKernelUsers; ++u) {
      users.push_back(u);
      values.push_back(
          0.05f + 0.9f * static_cast<float>(
                             core::kernels::HashSigma(11, u, 1)));
      soa.denom[u] = 0.5 + 2.0 * core::kernels::HashSigma(13, u, 2);
      soa.sched_mass[u] = (u % 3 == 0) ? 0.0 : soa.denom[u] * 0.4;
      // The carried old term, as TouchMass writes it.
      soa.ratio[u] = soa.denom[u] > 0.0 ? soa.sched_mass[u] / soa.denom[u]
                                        : 0.0;
      for (size_t lane = 0; lane < core::IntervalBlock::kWidth; ++lane) {
        const size_t i = u * core::IntervalBlock::kWidth + lane;
        block.denom[i] = 0.5 + 2.0 * core::kernels::HashSigma(13, u, lane);
        block.sigma[i] =
            static_cast<float>(core::kernels::HashSigma(7, u, lane));
      }
    }
  }
};

KernelFixture& Fixture() {
  static KernelFixture* fixture = new KernelFixture();
  return *fixture;
}

void BM_KernelLuceGain(benchmark::State& state) {
  KernelFixture& f = Fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::kernels::LuceGain(
        f.users.data(), f.values.data(), f.users.size(), f.soa.denom.data(),
        f.soa.sched_mass.data(), f.soa.ratio.data(), f.soa.sigma.data()));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kKernelUsers);
}
BENCHMARK(BM_KernelLuceGain);

/// LuceGainBlock over the same row at 4 lanes. Items are Luce terms
/// (users x lanes), comparable with BM_KernelLuceGain's.
void BM_KernelLuceGainBlock(benchmark::State& state) {
  KernelFixture& f = Fixture();
  double out[core::IntervalBlock::kWidth] = {};
  for (auto _ : state) {
    core::kernels::LuceGainBlock(f.users.data(), f.values.data(),
                                 f.users.size(), f.block.denom.data(),
                                 f.block.sigma.data(), out);
    benchmark::DoNotOptimize(out);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kKernelUsers * core::IntervalBlock::kWidth);
}
BENCHMARK(BM_KernelLuceGainBlock);

/// LuceGainRows over kGainRows copies of BM_KernelLuceGain's row. Items
/// are Luce terms (rows x users), comparable with BM_KernelLuceGain's.
void BM_KernelLuceGainRows(benchmark::State& state) {
  KernelFixture& f = Fixture();
  constexpr size_t kRows = core::kernels::kGainRows;
  const core::UserIndex* users[kRows];
  const float* values[kRows];
  size_t sizes[kRows];
  for (size_t r = 0; r < kRows; ++r) {
    users[r] = f.users.data();
    values[r] = f.values.data();
    sizes[r] = f.users.size();
  }
  double out[kRows] = {};
  for (auto _ : state) {
    core::kernels::LuceGainRows(users, values, sizes, f.soa.denom.data(),
                                f.soa.sched_mass.data(), f.soa.ratio.data(),
                                f.soa.sigma.data(), out);
    benchmark::DoNotOptimize(out);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kKernelUsers * kRows);
}
BENCHMARK(BM_KernelLuceGainRows);

void BM_KernelFillSigmaHash(benchmark::State& state) {
  KernelFixture& f = Fixture();
  core::IntervalIndex t = 0;
  for (auto _ : state) {
    core::kernels::FillSigmaHash(7, t++, f.soa.sigma);
    benchmark::DoNotOptimize(f.soa.sigma.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kKernelUsers);
}
BENCHMARK(BM_KernelFillSigmaHash);

}  // namespace

BENCHMARK_MAIN();
