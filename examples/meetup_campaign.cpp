/// Meetup campaign: the full paper pipeline as a downstream user would
/// run it — synthesize (or load) a Meetup-like dataset, persist it to
/// disk, rebuild the paper's Section IV-A workload, and compare every
/// registered solver.
///
///   ./meetup_campaign [--users=6000] [--k=40] [--data-dir=DIR]
///                     [--save-data] [--seed=5]
///
/// When --data-dir points at a previously saved dataset it is loaded
/// from CSV instead of regenerated, demonstrating dataset persistence.

#include <cstdio>
#include <filesystem>

#include "api/scheduler.h"
#include "core/validate.h"
#include "ebsn/dataset.h"
#include "ebsn/dataset_stats.h"
#include "ebsn/generator.h"
#include "exp/workload.h"
#include "util/flags.h"
#include "util/logging.h"

int main(int argc, char** argv) {
  using namespace ses;

  int64_t users = 6000;
  int64_t k = 40;
  int64_t seed = 5;
  std::string data_dir;
  bool save_data = false;
  util::FlagSet flags("meetup_campaign");
  flags.AddInt("users", &users, "synthetic audience size");
  flags.AddInt("k", &k, "events to schedule");
  flags.AddInt("seed", &seed, "random seed");
  flags.AddString("data-dir", &data_dir, "dataset directory (load/save)");
  flags.AddBool("save-data", &save_data, "persist the dataset as CSV");
  if (auto status = flags.Parse(argc, argv); !status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }

  // --- Data: load if available, otherwise synthesize (and maybe save).
  ebsn::EbsnDataset dataset;
  if (!data_dir.empty() &&
      std::filesystem::exists(data_dir + "/users.csv")) {
    std::printf("loading dataset from %s ...\n", data_dir.c_str());
    auto loaded = ebsn::EbsnDataset::Load(data_dir);
    if (!loaded.ok()) {
      std::fprintf(stderr, "load: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    dataset = std::move(loaded).value();
  } else {
    ebsn::SyntheticMeetupConfig config;
    config.num_users = static_cast<uint32_t>(users);
    config.num_events = static_cast<uint32_t>(users / 3);
    config.num_groups = static_cast<uint32_t>(users / 40 + 10);
    config.num_tags = 300;
    config.seed = static_cast<uint64_t>(seed);
    dataset = ebsn::GenerateSyntheticMeetup(config);
    if (save_data && !data_dir.empty()) {
      std::filesystem::create_directories(data_dir);
      auto status = dataset.Save(data_dir);
      std::printf("saved dataset to %s: %s\n", data_dir.c_str(),
                  status.ToString().c_str());
    }
  }

  std::printf("dataset summary:\n%s\n",
              ebsn::ComputeDatasetStats(dataset).ToString().c_str());

  // --- Workload per Section IV-A.
  exp::WorkloadFactory factory(dataset);
  exp::PaperWorkloadConfig config;
  config.k = k;
  config.seed = static_cast<uint64_t>(seed);
  auto instance = factory.Build(config);
  if (!instance.ok()) {
    std::fprintf(stderr, "workload: %s\n",
                 instance.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "SES instance: |U|=%u |E|=%u |T|=%u |C|=%u theta=%.0f\n\n",
      instance->num_users(), instance->num_events(),
      instance->num_intervals(), instance->num_competing(),
      instance->theta());

  // --- Every registered heuristic solver (exact would blow up here),
  // submitted asynchronously: the scheduler fans the runs across its
  // pool while this thread collects responses in submission order.
  api::Scheduler scheduler;
  std::vector<api::PendingSolve> pending;
  std::vector<std::string> names;
  for (const std::string& name : api::ListSolvers()) {
    if (name == "exact") continue;
    api::SolveRequest request;
    request.solver = name;
    request.options.k = k;
    request.options.seed = static_cast<uint64_t>(seed);
    pending.push_back(scheduler.Submit(*instance, std::move(request)));
    names.push_back(name);
  }

  std::printf("%8s %14s %10s %14s\n", "solver", "utility", "seconds",
              "assignments");
  for (size_t i = 0; i < pending.size(); ++i) {
    const api::SolveResponse response = pending[i].Get();
    if (!response.status.ok()) {
      std::fprintf(stderr, "%s: %s\n", names[i].c_str(),
                   response.status.ToString().c_str());
      continue;
    }
    SES_CHECK(
        core::ValidateAssignments(*instance, response.schedule).ok());
    std::printf("%8s %14.2f %10.3f %14zu\n", names[i].c_str(),
                response.utility, response.wall_seconds,
                response.schedule.size());
  }
  return 0;
}
