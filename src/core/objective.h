#ifndef SES_CORE_OBJECTIVE_H_
#define SES_CORE_OBJECTIVE_H_

/// \file
/// Reference (non-incremental) implementations of the paper's equations:
///
///   Eq. 1  rho_{u,e}^t = sigma_u^t * mu(u,e) /
///            ( sum_{c in C_t} mu(u,c) + sum_{p in E_t(S)} mu(u,p) )
///   Eq. 2  omega_e^t   = sum_{u in U} rho_{u,e}^t
///   Eq. 3  Omega(S)    = sum_{e in E(S)} omega_e^{t_e(S)}
///
/// These functions recompute everything from scratch. They are the ground
/// truth that the incremental AttendanceModel is tested against, and the
/// final-answer evaluator used when reporting solver results.
///
/// They are also the independent oracle for the kernel layer
/// (core/kernels.h): tests/core_kernel_diff_test.cc pins
/// kernels::LuceGain-backed MarginalGain against AssignmentScore to a
/// 1e-6 relative tolerance — tolerance rather than bit-identity because
/// these references sum in a different association (per-user dense
/// denominators, then one ratio per interest entry) than the incremental
/// engine's single accumulator.

#include "core/instance.h"
#include "core/schedule.h"
#include "util/hot_annotations.h"

namespace ses::core {

/// Eq. 1: probability that \p u attends event \p e under \p schedule.
/// \p e must be assigned. Returns 0 when the denominator is empty (the
/// user is interested in nothing happening at that interval).
///
/// SES_HOT: evaluators sweep this over every (user, event) pair when
/// reporting per-user probabilities, so the per-call body must stay
/// allocation-free (the aggregate helpers below build a dense |U|
/// denominator row per interval and are deliberately not hot).
SES_HOT double AttendanceProbability(const SesInstance& instance,
                                     const Schedule& schedule, UserIndex u,
                                     EventIndex e);

/// Eq. 2: expected attendance of assigned event \p e under \p schedule.
double ExpectedAttendance(const SesInstance& instance,
                          const Schedule& schedule, EventIndex e);

/// Eq. 3: total utility of \p schedule.
double TotalUtility(const SesInstance& instance, const Schedule& schedule);

/// Eq. 4: the assignment score of placing unassigned event \p e at
/// interval \p t — the gain in total utility. Reference implementation
/// that copies the schedule; O(interval work), intended for tests.
double AssignmentScore(const SesInstance& instance, const Schedule& schedule,
                       EventIndex e, IntervalIndex t);

}  // namespace ses::core

#endif  // SES_CORE_OBJECTIVE_H_
