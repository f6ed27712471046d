#include "core/schedule.h"

#include <algorithm>

#include "util/logging.h"
#include "util/string_util.h"

namespace ses::core {

Schedule::Schedule(const SesInstance& instance)
    : instance_(&instance),
      event_interval_(instance.num_events(), kInvalidIndex),
      interval_events_(instance.num_intervals()),
      interval_resources_(instance.num_intervals(), 0.0) {}

bool Schedule::IsAssigned(EventIndex e) const {
  SES_CHECK_LT(e, event_interval_.size());
  return event_interval_[e] != kInvalidIndex;
}

IntervalIndex Schedule::IntervalOf(EventIndex e) const {
  SES_CHECK_LT(e, event_interval_.size());
  return event_interval_[e];
}

const std::vector<EventIndex>& Schedule::EventsAt(IntervalIndex t) const {
  SES_CHECK_LT(t, interval_events_.size());
  return interval_events_[t];
}

double Schedule::UsedResources(IntervalIndex t) const {
  SES_CHECK_LT(t, interval_resources_.size());
  return interval_resources_[t];
}

bool Schedule::CanAssign(EventIndex e, IntervalIndex t) const {
  if (e >= event_interval_.size() || t >= interval_events_.size()) {
    return false;
  }
  if (event_interval_[e] != kInvalidIndex) return false;
  const CandidateEventInfo& info = instance_->event(e);
  if (interval_resources_[t] + info.required_resources >
      instance_->theta()) {
    return false;
  }
  for (EventIndex other : interval_events_[t]) {
    if (instance_->event(other).location == info.location) return false;
  }
  return true;
}

util::Status Schedule::Assign(EventIndex e, IntervalIndex t) {
  if (e >= event_interval_.size()) {
    return util::Status::OutOfRange(
        util::StrFormat("event %u out of range", e));
  }
  if (t >= interval_events_.size()) {
    return util::Status::OutOfRange(
        util::StrFormat("interval %u out of range", t));
  }
  if (event_interval_[e] != kInvalidIndex) {
    return util::Status::FailedPrecondition(
        util::StrFormat("event %u already assigned", e));
  }
  if (!CanAssign(e, t)) {
    return util::Status::Infeasible(util::StrFormat(
        "assignment of event %u to interval %u violates a constraint", e,
        t));
  }
  event_interval_[e] = t;
  interval_events_[t].push_back(e);
  interval_resources_[t] += instance_->event(e).required_resources;
  ++size_;
  return util::Status::Ok();
}

util::Status Schedule::Unassign(EventIndex e) {
  if (e >= event_interval_.size()) {
    return util::Status::OutOfRange(
        util::StrFormat("event %u out of range", e));
  }
  const IntervalIndex t = event_interval_[e];
  if (t == kInvalidIndex) {
    return util::Status::FailedPrecondition(
        util::StrFormat("event %u not assigned", e));
  }
  auto& events = interval_events_[t];
  events.erase(std::find(events.begin(), events.end(), e));
  interval_resources_[t] -= instance_->event(e).required_resources;
  if (interval_resources_[t] < 0.0) interval_resources_[t] = 0.0;
  event_interval_[e] = kInvalidIndex;
  --size_;
  return util::Status::Ok();
}

std::vector<Assignment> Schedule::Assignments() const {
  std::vector<Assignment> out;
  out.reserve(size_);
  for (EventIndex e = 0; e < event_interval_.size(); ++e) {
    if (event_interval_[e] != kInvalidIndex) {
      out.push_back({e, event_interval_[e]});
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

util::Status ApplyWarmStart(Schedule& schedule,
                            std::span<const Assignment> warm_start) {
  for (const Assignment& a : warm_start) {
    if (auto status = schedule.Assign(a.event, a.interval); !status.ok()) {
      return util::Status::InvalidArgument(util::StrFormat(
          "warm-start assignment of event %u to interval %u is "
          "infeasible: %s",
          a.event, a.interval, status.message().c_str()));
    }
  }
  return util::Status::Ok();
}

}  // namespace ses::core
