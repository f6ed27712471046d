#ifndef SES_CORE_SCHEDULE_H_
#define SES_CORE_SCHEDULE_H_

/// \file
/// A schedule S: a set of event-to-interval assignments with at most one
/// assignment per event, maintained together with the paper's two
/// feasibility constraints (Section II):
///
///   1. Location constraint: no two events at the same location within
///      one interval.
///   2. Resources constraint: the events of one interval require at most
///      theta resources in total.

#include <span>
#include <vector>

#include "core/instance.h"
#include "core/types.h"
#include "util/status.h"

namespace ses::core {

/// Mutable schedule over a fixed instance (which must outlive it).
class Schedule {
 public:
  explicit Schedule(const SesInstance& instance);

  /// True iff event \p e currently has an assignment.
  bool IsAssigned(EventIndex e) const;

  /// The interval of event \p e, or kInvalidIndex when unassigned.
  IntervalIndex IntervalOf(EventIndex e) const;

  /// Events assigned to interval \p t (E_t(S)), in assignment order.
  const std::vector<EventIndex>& EventsAt(IntervalIndex t) const;

  /// Total resources required by the events of interval \p t.
  double UsedResources(IntervalIndex t) const;

  /// True iff assigning e to t would be *valid*: e unassigned, and both
  /// feasibility constraints hold after the assignment.
  bool CanAssign(EventIndex e, IntervalIndex t) const;

  /// Performs the assignment; Infeasible/FailedPrecondition when
  /// CanAssign(e, t) is false.
  [[nodiscard]] util::Status Assign(EventIndex e, IntervalIndex t);

  /// Removes event \p e's assignment; FailedPrecondition when unassigned.
  [[nodiscard]] util::Status Unassign(EventIndex e);

  /// Number of assignments |S|.
  size_t size() const { return size_; }

  /// All assignments sorted by (interval, event).
  std::vector<Assignment> Assignments() const;

  /// The instance this schedule refers to.
  const SesInstance& instance() const { return *instance_; }

 private:
  const SesInstance* instance_;
  std::vector<IntervalIndex> event_interval_;
  std::vector<std::vector<EventIndex>> interval_events_;
  std::vector<double> interval_resources_;
  size_t size_ = 0;
};

/// Applies a warm start to an empty schedule, in order, with the strict
/// feasibility checks of Assign. Returns InvalidArgument naming the
/// first assignment that cannot be applied. The one warm-start check:
/// ValidateSolverOptions runs it, and Solver::Solve replays the warm
/// start with it into the schedule every solver starts from.
[[nodiscard]] util::Status ApplyWarmStart(Schedule& schedule,
                            std::span<const Assignment> warm_start);

}  // namespace ses::core

#endif  // SES_CORE_SCHEDULE_H_
