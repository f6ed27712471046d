#include "core/best_fit.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/attendance.h"
#include "core/greedy.h"
#include "core/objective.h"
#include "core/schedule.h"
#include "core/top_k.h"
#include "core/validate.h"
#include "ebsn/generator.h"
#include "exp/workload.h"
#include "tests/test_util.h"

namespace ses::core {
namespace {

class BestFitTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  SesInstance MakeInstance() const {
    test::RandomInstanceConfig config;
    config.seed = GetParam();
    config.num_users = 35;
    config.num_events = 12;
    config.num_intervals = 5;
    return test::MakeRandomInstance(config);
  }
};

TEST_P(BestFitTest, ProducesFeasibleKSchedule) {
  const SesInstance instance = MakeInstance();
  SolverOptions options;
  options.k = 5;
  BestFitSolver bestfit;
  auto result = bestfit.Solve(instance, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(ValidateAssignments(instance, result->assignments, 5).ok());
  EXPECT_EQ(result->solver, "bestfit");
}

TEST_P(BestFitTest, Deterministic) {
  const SesInstance instance = MakeInstance();
  SolverOptions options;
  options.k = 4;
  BestFitSolver bestfit;
  auto a = bestfit.Solve(instance, options);
  auto b = bestfit.Solve(instance, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->assignments, b->assignments);
}

TEST_P(BestFitTest, NeverBeatsGreedyByMuchAndBeatsNothingInvalid) {
  const SesInstance instance = MakeInstance();
  SolverOptions options;
  options.k = 5;
  BestFitSolver bestfit;
  GreedySolver grd;
  auto bf = bestfit.Solve(instance, options);
  auto g = grd.Solve(instance, options);
  ASSERT_TRUE(bf.ok());
  ASSERT_TRUE(g.ok());
  // Event-major order is a heuristic restriction of GRD; it can win
  // occasionally (greedy is not optimal) but should stay in the same
  // ballpark. The point of this assertion is catching gross regressions.
  EXPECT_GE(bf->utility, 0.5 * g->utility);
  EXPECT_LE(bf->utility, 1.5 * g->utility);
}

TEST_P(BestFitTest, DoesFewerEvaluationsThanGreedy) {
  const SesInstance instance = MakeInstance();
  SolverOptions options;
  options.k = 6;
  BestFitSolver bestfit;
  GreedySolver grd;
  auto bf = bestfit.Solve(instance, options);
  auto g = grd.Solve(instance, options);
  ASSERT_TRUE(bf.ok());
  ASSERT_TRUE(g.ok());
  // BESTFIT costs |E||T| evaluations plus one chosen-interval refresh per
  // placement (at most k|E| in all); GRD's update cost varies with how
  // contested the chosen intervals are, so on tiny instances the two can
  // be within one interval-refresh of each other.
  EXPECT_LE(bf->stats.gain_evaluations,
            g->stats.gain_evaluations + instance.num_intervals());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BestFitTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

TEST(BestFitSingleTest, AvoidsTheCompetitionLoadedInterval) {
  // Two user-disjoint events and a competing event at interval 0 only.
  // The events never interact (no shared users, distinct locations), so
  // both belong at the competition-free interval 1 for the optimum 2.0.
  InstanceBuilder builder;
  builder.SetNumUsers(2).SetNumIntervals(2).SetTheta(10.0).SetSigma(
      std::make_shared<ConstSigma>(1.0));
  builder.AddEvent(0, 1.0, {{0, 0.9f}});
  builder.AddEvent(1, 1.0, {{1, 0.9f}});
  builder.AddCompetingEvent(0, {{0, 0.9f}, {1, 0.9f}});
  auto instance = builder.Build();
  ASSERT_TRUE(instance.ok());

  SolverOptions options;
  options.k = 2;
  BestFitSolver bestfit;
  auto result = bestfit.Solve(*instance, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->assignments.size(), 2u);
  for (const Assignment& a : result->assignments) {
    EXPECT_EQ(a.interval, 1u);
  }
  EXPECT_NEAR(result->utility, 2.0, 1e-6);
}

TEST(BestFitSingleTest, FreshGainSeesEarlierPlacements) {
  // One shared fan: if both events pile onto interval 1, the fan splits
  // (utility 1.0 total from them); the second event should instead take
  // interval 0 and keep the fan's full attention twice (0.5/1.4 loss vs
  // fresh gain comparison). Competing event at interval 0 with interest
  // 0.5 makes interval 1 more attractive for the *first* pick only.
  InstanceBuilder builder;
  builder.SetNumUsers(1).SetNumIntervals(2).SetTheta(10.0).SetSigma(
      std::make_shared<ConstSigma>(1.0));
  builder.AddEvent(/*location=*/0, 1.0, {{0, 0.9f}});
  builder.AddEvent(/*location=*/1, 1.0, {{0, 0.9f}});
  builder.AddCompetingEvent(0, {{0, 0.5f}});
  auto instance = builder.Build();
  ASSERT_TRUE(instance.ok());

  SolverOptions options;
  options.k = 2;
  BestFitSolver bestfit;
  auto result = bestfit.Solve(*instance, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->assignments.size(), 2u);
  // One event per interval: 1.0 (alone at t1) + 0.9/1.4 (vs competing
  // at t0) beats sharing t1 (0.5 + 0.5).
  EXPECT_NE(result->assignments[0].interval,
            result->assignments[1].interval);
  EXPECT_NEAR(result->utility, 1.0 + 0.9 / 1.4, 1e-6);
}

// --- Equivalence with the event-major scan ----------------------------------

/// Bestfit before it read its scores from a shared grid: one model scores
/// every pair for the priorities, then each visited event calls
/// MarginalGain at every feasible interval (each call reloads that
/// interval). Events visit in descending priority, equal priorities in
/// ascending event order. The solver must reproduce it bit for bit.
///
/// The scan also counts the work the solver should report. A grid fill
/// scores each profile (distinct interest row) of the unassigned events
/// once per interval. After each placement, unless it is the last, the
/// solver rescores the chosen interval for its window: the events after
/// the placed one, up to a horizon that covers the first k - |warm
/// start| events left to place. It updates every window event that
/// still fits there and scores each of their profiles once. The first
/// skip moves the horizon to the end, and every interval placed so far
/// is rescored once for the events past the old horizon.
struct ScanResult {
  std::vector<Assignment> assignments;
  double utility = 0.0;
  uint64_t evaluations = 0;
  uint64_t updates = 0;
  /// An event was placed after one found no feasible interval.
  bool placed_after_skip = false;
};

/// Distinct profiles among the events \p counted selects.
template <typename Counted>
uint64_t CountProfiles(const SesInstance& instance, Counted counted) {
  std::vector<bool> seen(instance.num_profiles(), false);
  uint64_t profiles = 0;
  for (EventIndex e = 0; e < instance.num_events(); ++e) {
    if (!counted(e)) continue;
    if (!seen[instance.EventProfile(e)]) ++profiles;
    seen[instance.EventProfile(e)] = true;
  }
  return profiles;
}

ScanResult EventMajorScan(const SesInstance& instance,
                          const SolverOptions& options) {
  AttendanceModel model(test::Replay(instance, options.warm_start));
  ScanResult scan;
  scan.evaluations =
      CountProfiles(instance,
                    [&](EventIndex e) {
                      return !model.schedule().IsAssigned(e);
                    }) *
      instance.num_intervals();
  std::vector<double> priority(instance.num_events(), 0.0);
  for (IntervalIndex t = 0; t < instance.num_intervals(); ++t) {
    for (EventIndex e = 0; e < instance.num_events(); ++e) {
      if (model.schedule().IsAssigned(e)) continue;
      priority[e] = std::max(priority[e], model.MarginalGain(e, t));
    }
  }
  std::vector<EventIndex> order(instance.num_events());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&priority](EventIndex a, EventIndex b) {
              if (priority[a] != priority[b]) return priority[a] > priority[b];
              return a < b;
            });
  std::vector<size_t> position(instance.num_events());
  for (size_t i = 0; i < order.size(); ++i) position[order[i]] = i;

  const size_t k = static_cast<size_t>(options.k);
  size_t horizon = 0;
  for (size_t left = k - std::min(k, model.schedule().size());
       left > 0 && horizon < order.size(); ++horizon) {
    if (!model.schedule().IsAssigned(order[horizon])) --left;
  }
  // Counts a rescoring of interval t over order[from, horizon).
  auto count_rescore = [&](IntervalIndex t, size_t from) {
    auto fits = [&](EventIndex f) {
      return position[f] >= from && position[f] < horizon &&
             model.CanAssign(f, t);
    };
    for (EventIndex f = 0; f < instance.num_events(); ++f) {
      scan.updates += fits(f) ? 1 : 0;
    }
    scan.evaluations += CountProfiles(instance, fits);
  };
  std::vector<bool> placed_at(instance.num_intervals(), false);
  bool skipped = false;
  for (size_t i = 0; i < order.size(); ++i) {
    if (model.schedule().size() >= k) break;
    const EventIndex e = order[i];
    if (model.schedule().IsAssigned(e)) continue;
    double best_gain = -1.0;
    IntervalIndex best_interval = kInvalidIndex;
    for (IntervalIndex t = 0; t < instance.num_intervals(); ++t) {
      if (!model.CanAssign(e, t)) continue;
      const double gain = model.MarginalGain(e, t);
      if (gain > best_gain) {
        best_gain = gain;
        best_interval = t;
      }
    }
    if (best_interval == kInvalidIndex) {
      skipped = true;
      const size_t past = horizon;
      horizon = order.size();
      for (IntervalIndex t = 0; t < instance.num_intervals(); ++t) {
        if (placed_at[t]) count_rescore(t, past);
      }
      continue;
    }
    model.Apply(e, best_interval);
    placed_at[best_interval] = true;
    scan.placed_after_skip |= skipped;
    if (model.schedule().size() >= k) continue;
    count_rescore(best_interval, i + 1);
  }
  scan.assignments = model.schedule().Assignments();
  scan.utility = TotalUtility(instance, model.schedule());
  return scan;
}

/// Checks bestfit against the scan; returns the scan.
ScanResult ExpectMatchesScan(const SesInstance& instance,
                             const SolverOptions& options) {
  ScanResult reference = EventMajorScan(instance, options);
  BestFitSolver bestfit;
  auto result = bestfit.Solve(instance, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return reference;
  EXPECT_EQ(result->assignments, reference.assignments);
  // Bitwise: every score read must be the fresh gain, not a near copy.
  EXPECT_EQ(result->utility, reference.utility);
  EXPECT_EQ(result->stats.gain_evaluations, reference.evaluations);
  EXPECT_EQ(result->stats.updates, reference.updates);
  return reference;
}

/// Up to two feasible assignments, at intervals rotated by \p seed.
std::vector<Assignment> SmallWarmStart(const SesInstance& instance,
                                       uint64_t seed) {
  Schedule schedule(instance);
  for (EventIndex e = seed % 3;
       e < instance.num_events() && schedule.size() < 2; e += 5) {
    for (uint32_t offset = 0; offset < instance.num_intervals(); ++offset) {
      const IntervalIndex t = static_cast<IntervalIndex>(
          (seed + offset) % instance.num_intervals());
      if (!schedule.CanAssign(e, t)) continue;
      SES_CHECK(schedule.Assign(e, t).ok());
      break;
    }
  }
  return schedule.Assignments();
}

TEST(BestFitEquivalenceTest, MatchesEventMajorScanOnRandomInstances) {
  // Runs that place an event after a skip: they can read cells that
  // only the catch-up at the first skip keeps fresh.
  int placed_after_skip = 0;
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    test::RandomInstanceConfig config;
    config.seed = seed;
    config.num_users = 30;
    config.num_events = 10;
    config.num_intervals = 4;
    config.num_locations = 1 + seed % 5;
    // Tight: xi is drawn from [1, 4], so one to four events fit per
    // interval and some k are unreachable.
    config.theta = 5.0;
    const SesInstance instance = test::MakeRandomInstance(config);
    const std::vector<Assignment> warm = SmallWarmStart(instance, seed);
    for (bool warm_started : {false, true}) {
      const int64_t k_min =
          warm_started ? std::max<int64_t>(1, warm.size()) : 1;
      for (int64_t k = k_min; k <= config.num_events; ++k) {
        for (int64_t threads : {1, 3}) {
          SolverOptions options;
          options.k = k;
          options.threads = threads;
          if (warm_started) options.warm_start = warm;
          SCOPED_TRACE("seed=" + std::to_string(seed) +
                       " k=" + std::to_string(k) +
                       " warm=" + std::to_string(warm_started) +
                       " threads=" + std::to_string(threads));
          placed_after_skip +=
              ExpectMatchesScan(instance, options).placed_after_skip;
          if (HasFailure()) return;  // one report, not thousands
        }
      }
    }
  }
  EXPECT_GT(placed_after_skip, 0);
}

TEST(BestFitEquivalenceTest, VisitsEqualPriorityTwinsInEventOrder) {
  // Every event has priority 1.0, so bestfit visits them in event order:
  // events 0..19 take interval 0, the first of the tied best intervals,
  // and each twin 20..39 then finds its gain at interval 0 dropped to 0
  // and takes interval 1.
  const SesInstance instance = test::MakeAllTiedInstance(20, 3);
  std::vector<Assignment> expected;
  for (EventIndex e = 0; e < 40; ++e) expected.push_back({e, e / 20});
  SolverOptions options;
  options.k = 40;
  BestFitSolver bestfit;
  auto result = bestfit.Solve(instance, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->assignments, expected);
  EXPECT_EQ(result->utility, 40.0);

  // Random twin pairs tie on priority only with each other.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    test::RandomInstanceConfig config;
    config.seed = seed;
    config.num_users = 30;
    config.num_events = 24;
    config.num_intervals = 4;
    config.theta = 10.0;
    config.twins = true;
    const SesInstance twins = test::MakeRandomInstance(config);
    for (int64_t k : {6, 12, 24}) {
      options.k = k;
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " k=" + std::to_string(k));
      ExpectMatchesScan(twins, options);
      if (HasFailure()) return;
    }
  }
}

TEST(BestFitEquivalenceTest, MatchesEventMajorScanAtServingShape) {
#ifndef NDEBUG
  GTEST_SKIP() << "5,000-user instance; runs in optimized builds only";
#endif
  // The generator instance the serving benchmark uses: 5,000 users,
  // |E|=120, |T|=90, k=60.
  ebsn::SyntheticMeetupConfig data;
  data.num_users = 5000;
  data.num_events = 2000;
  data.num_groups = 200;
  data.num_tags = 200;
  data.seed = 3;
  const ebsn::EbsnDataset dataset = ebsn::GenerateSyntheticMeetup(data);
  exp::PaperWorkloadConfig config;
  config.k = 60;
  config.seed = 7;
  auto instance = exp::WorkloadFactory(dataset).Build(config);
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();
  SolverOptions options;
  options.k = config.k;
  ExpectMatchesScan(*instance, options);
}

}  // namespace
}  // namespace ses::core
