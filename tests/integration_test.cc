/// End-to-end pipeline test: synthesize an EBSN dataset, build the paper
/// workload, run the paper's three methods, and check the paper's
/// qualitative findings at reduced scale.

#include <gtest/gtest.h>

#include "ebsn/generator.h"
#include "exp/sweep.h"
#include "exp/workload.h"

namespace ses {
namespace {

const ebsn::EbsnDataset& PipelineDataset() {
  static const ebsn::EbsnDataset* dataset = [] {
    ebsn::SyntheticMeetupConfig config;
    config.num_users = 2000;
    config.num_events = 800;
    config.num_groups = 120;
    config.num_tags = 150;
    config.seed = 20180101;
    return new ebsn::EbsnDataset(ebsn::GenerateSyntheticMeetup(config));
  }();
  return *dataset;
}

/// One sweep point on \p config, solved at k = \p k.
exp::SweepPoint MakePoint(const exp::PaperWorkloadConfig& config, int64_t k,
                          uint64_t seed, int64_t x) {
  exp::SweepPoint point;
  point.config = config;
  point.options.k = k;
  point.options.seed = seed;
  point.x = x;
  return point;
}

TEST(IntegrationTest, FullPipelineRunsAndSchedulesAreFeasible) {
  exp::WorkloadFactory factory(PipelineDataset());
  exp::PaperWorkloadConfig config;
  config.k = 25;
  config.seed = 3;
  // RunSweep validates every returned schedule against the instance.
  auto records = exp::RunSweep(factory, {MakePoint(config, 25, 3, 25)},
                               {"grd", "lazy", "top", "rand"}, /*jobs=*/0);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 4u);
  for (const exp::RunRecord& record : *records) {
    EXPECT_EQ(record.assignments, 25u) << record.solver;
    EXPECT_GT(record.utility, 0.0) << record.solver;
  }
}

TEST(IntegrationTest, PaperFindingGreedyDominatesBaselines) {
  exp::WorkloadFactory factory(PipelineDataset());

  // Aggregate over several seeds so the comparison is not hostage to one
  // random draw — mirrors the paper's Figure 1a finding.
  std::vector<exp::SweepPoint> points;
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    exp::PaperWorkloadConfig config;
    config.k = 20;
    config.seed = seed;
    points.push_back(MakePoint(config, 20, seed, 0));
  }
  auto records =
      exp::RunSweep(factory, points, {"grd", "top", "rand"}, /*jobs=*/0);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  double grd_total = 0.0;
  double top_total = 0.0;
  double rand_total = 0.0;
  for (size_t i = 0; i < records->size(); i += 3) {
    grd_total += (*records)[i].utility;
    top_total += (*records)[i + 1].utility;
    rand_total += (*records)[i + 2].utility;
  }
  EXPECT_GT(grd_total, top_total);
  EXPECT_GT(grd_total, rand_total);
}

TEST(IntegrationTest, PaperFindingUtilityGrowsWithIntervals) {
  exp::WorkloadFactory factory(PipelineDataset());

  std::vector<exp::SweepPoint> points;
  for (uint64_t seed : {5ull, 6ull}) {
    for (const int64_t intervals : {4ll, 60ll}) {
      exp::PaperWorkloadConfig config;
      config.k = 20;
      config.num_intervals = intervals;
      config.seed = seed;
      points.push_back(MakePoint(config, 20, seed, intervals));
    }
  }
  auto records = exp::RunSweep(factory, points, {"grd"}, /*jobs=*/0);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  double few_intervals_utility = 0.0;
  double many_intervals_utility = 0.0;
  for (const exp::RunRecord& record : *records) {
    (record.x == 4 ? few_intervals_utility : many_intervals_utility) +=
        record.utility;
  }
  // More intervals -> less crowding and more candidate assignments ->
  // higher utility (paper Fig. 1c trend).
  EXPECT_GT(many_intervals_utility, few_intervals_utility);
}

TEST(IntegrationTest, GreedyUtilityIsMonotoneInK) {
  exp::WorkloadFactory factory(PipelineDataset());
  exp::PaperWorkloadConfig config;
  config.k = 30;  // fixes |E| = 60, |T| = 45
  config.num_candidate_events = 60;
  config.num_intervals = 45;
  config.seed = 9;
  // Every point builds the same instance; only the solver's k varies.
  std::vector<exp::SweepPoint> points;
  for (int64_t k : {5ll, 15ll, 30ll}) {
    points.push_back(MakePoint(config, k, /*seed=*/1, k));
  }
  auto records = exp::RunSweep(factory, points, {"grd"}, /*jobs=*/0);
  ASSERT_TRUE(records.ok()) << records.status().ToString();

  double previous = 0.0;
  for (const exp::RunRecord& record : *records) {
    EXPECT_GE(record.utility, previous - 1e-9) << "k=" << record.x;
    previous = record.utility;
  }
}

}  // namespace
}  // namespace ses
