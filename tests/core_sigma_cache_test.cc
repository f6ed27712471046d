/// Regression suite for AttendanceModel's per-interval cache of
/// competing-event masses and sigma rows (built on an interval's second
/// load). The cache is a pure memoization: every gain, loss, and utility
/// must be bit-for-bit identical to what an uncached evaluation
/// produces. These tests pin that by comparing a long-lived (cache-warm)
/// model against freshly constructed (cache-cold) models and against the
/// reference objective.

#include <vector>

#include <gtest/gtest.h>

#include "core/attendance.h"
#include "core/exact.h"
#include "core/greedy.h"
#include "core/lazy_greedy.h"
#include "core/objective.h"
#include "core/schedule.h"
#include "tests/test_util.h"

namespace ses::core {
namespace {

SesInstance CacheInstance(uint64_t seed = 7) {
  test::RandomInstanceConfig config;
  config.seed = seed;
  config.num_users = 50;
  config.num_events = 12;
  config.num_intervals = 5;
  config.theta = 14.0;
  config.competing_per_interval = 3.0;
  return test::MakeRandomInstance(config);
}

/// Gains of every feasible (event, interval) pair under \p model's
/// current schedule, interval-major.
std::vector<double> AllGains(const SesInstance& instance,
                             AttendanceModel& model) {
  std::vector<double> gains;
  for (IntervalIndex t = 0; t < instance.num_intervals(); ++t) {
    for (EventIndex e = 0; e < instance.num_events(); ++e) {
      if (!model.CanAssign(e, t)) continue;
      gains.push_back(model.MarginalGain(e, t));
    }
  }
  return gains;
}

TEST(SigmaCacheTest, WarmModelMatchesColdModelBitwise) {
  const SesInstance instance = CacheInstance();
  AttendanceModel warm(instance);

  // A schedule grown over several rounds; by round 1 every interval has
  // been loaded twice and the warm model answers from its cache. Each
  // round assigns event `round - 1` to its first feasible interval,
  // rotating starting intervals so several intervals get schedule mass.
  constexpr size_t kRounds = 6;
  std::vector<Assignment> applied;
  for (size_t round = 0; round <= kRounds; ++round) {
    SCOPED_TRACE(round);
    // Cold model: rebuilt from scratch, so its first full sweep runs
    // entirely on the uncached path.
    AttendanceModel cold(instance);
    for (const Assignment& a : applied) cold.Apply(a.event, a.interval);

    const std::vector<double> warm_gains = AllGains(instance, warm);
    const std::vector<double> cold_gains = AllGains(instance, cold);
    ASSERT_EQ(warm_gains.size(), cold_gains.size());
    for (size_t i = 0; i < warm_gains.size(); ++i) {
      // Bitwise: the cache stores the exact doubles the uncached path
      // accumulates, so there is no tolerance to grant.
      EXPECT_EQ(warm_gains[i], cold_gains[i]) << "gain #" << i;
    }
    EXPECT_EQ(warm.total_utility(), cold.total_utility());

    if (round < kRounds) {
      const EventIndex e = static_cast<EventIndex>(round);
      for (uint32_t offset = 0; offset < instance.num_intervals();
           ++offset) {
        const IntervalIndex t = static_cast<IntervalIndex>(
            (round + offset) % instance.num_intervals());
        if (!warm.CanAssign(e, t)) continue;
        warm.Apply(e, t);
        applied.push_back({e, t});
        break;
      }
    }
  }
  // The churn above must actually have scheduled something, or the test
  // would silently degenerate to comparing empty schedules.
  EXPECT_GE(applied.size(), 3u);
}

TEST(SigmaCacheTest, UnapplyOnCachedIntervalsMatchesReference) {
  const SesInstance instance = CacheInstance(11);
  AttendanceModel model(instance);

  // Apply/unapply churn across intervals — the branch-and-bound access
  // pattern that the cache accelerates.
  ASSERT_TRUE(model.CanAssign(0, 0));
  model.Apply(0, 0);
  ASSERT_TRUE(model.CanAssign(1, 1));
  model.Apply(1, 1);
  model.Unapply(0);
  ASSERT_TRUE(model.CanAssign(0, 2));
  model.Apply(0, 2);
  model.Unapply(1);
  ASSERT_TRUE(model.CanAssign(2, 0));
  model.Apply(2, 0);

  // The tracked utility must equal the reference objective on the same
  // schedule, and the tracked schedule must be exactly {0->2, 2->0}.
  Schedule reference(instance);
  ASSERT_TRUE(reference.Assign(0, 2).ok());
  ASSERT_TRUE(reference.Assign(2, 0).ok());
  EXPECT_EQ(model.schedule().Assignments(), reference.Assignments());
  // 1e-6 like core_attendance_test: the incremental engine keeps sigma
  // as floats, the reference objective as doubles.
  EXPECT_NEAR(model.total_utility(), TotalUtility(instance, reference),
              1e-6);
}

TEST(SigmaCacheTest, GainsMatchReferenceAssignmentScore) {
  const SesInstance instance = CacheInstance(13);
  AttendanceModel model(instance);
  ASSERT_TRUE(model.CanAssign(3, 2));
  model.Apply(3, 2);

  // Two sweeps: the first warms the cache, the second reads from it.
  // Both must agree with the from-scratch Eq. 4 reference.
  for (int sweep = 0; sweep < 2; ++sweep) {
    SCOPED_TRACE(sweep);
    Schedule mirror(instance);
    ASSERT_TRUE(mirror.Assign(3, 2).ok());
    for (IntervalIndex t = 0; t < instance.num_intervals(); ++t) {
      for (EventIndex e = 0; e < instance.num_events(); ++e) {
        if (!model.CanAssign(e, t)) continue;
        EXPECT_NEAR(model.MarginalGain(e, t),
                    AssignmentScore(instance, mirror, e, t), 1e-6)
            << "e=" << e << " t=" << t;
      }
    }
  }
}

TEST(SigmaCacheTest, SolverUtilitiesPinnedToReferenceObjective) {
  const SesInstance instance = CacheInstance(17);
  SolverOptions options;
  options.k = 5;
  options.seed = 3;

  GreedySolver grd;
  LazyGreedySolver lazy;
  ExactSolver exact;
  for (Solver* solver :
       std::initializer_list<Solver*>{&grd, &lazy, &exact}) {
    auto result = solver->Solve(instance, options);
    ASSERT_TRUE(result.ok()) << solver->name();
    Schedule schedule(instance);
    for (const Assignment& a : result->assignments) {
      ASSERT_TRUE(schedule.Assign(a.event, a.interval).ok());
    }
    EXPECT_NEAR(result->utility, TotalUtility(instance, schedule), 1e-9)
        << solver->name();  // tight: both sides use the reference objective

    // Determinism across reruns: the cache must not perturb a single
    // bit of the answer.
    auto rerun = solver->Solve(instance, options);
    ASSERT_TRUE(rerun.ok());
    EXPECT_EQ(result->assignments, rerun->assignments) << solver->name();
    EXPECT_EQ(result->utility, rerun->utility) << solver->name();
  }
}

}  // namespace
}  // namespace ses::core
