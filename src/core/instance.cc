#include "core/instance.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/logging.h"
#include "util/string_util.h"

namespace ses::core {

namespace {

/// NaN fails the comparison, so it is rejected along with negatives.
bool IsFiniteNonNegative(double x) { return x >= 0.0 && std::isfinite(x); }

using Row = InstanceBuilder::Row;

/// One (user, mu) entry as 64 bits: the user and the float's bits.
uint64_t EntryBits(const std::pair<UserIndex, float>& entry) {
  return (uint64_t{entry.first} << 32) | std::bit_cast<uint32_t>(entry.second);
}

/// Four independent multiply chains keep hashing near one entry per
/// cycle; the final mix spreads every bit into the low bits the intern
/// table indexes by.
uint64_t HashRow(const Row& row) {
  constexpr uint64_t kMul = 0x9e3779b97f4a7c15ull;
  uint64_t lanes[4] = {row.size(), 0, 0, 0};
  size_t i = 0;
  for (; i + 4 <= row.size(); i += 4) {
    for (size_t lane = 0; lane < 4; ++lane) {
      lanes[lane] = (lanes[lane] ^ EntryBits(row[i + lane])) * kMul;
    }
  }
  for (; i < row.size(); ++i) lanes[0] = (lanes[0] ^ EntryBits(row[i])) * kMul;
  uint64_t hash = 0;
  for (const uint64_t lane : lanes) {
    hash = (hash ^ lane) * kMul;
    hash ^= hash >> 32;
  }
  return hash;
}

/// Equal users and equal float bits, entry by entry.
bool SameRow(const Row& a, const Row& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const auto& x, const auto& y) {
                      return EntryBits(x) == EntryBits(y);
                    });
}

}  // namespace

void InterestRows::Reserve(size_t rows, size_t entries) {
  offsets_.reserve(offsets_.size() + rows);
  users_.reserve(users_.size() + entries);
  values_.reserve(values_.size() + entries);
}

uint32_t InterestRows::AddRow(
    std::span<const std::pair<UserIndex, float>> entries) {
  // Sized up front, so the copy loop has no capacity checks.
  const size_t begin = users_.size();
  users_.resize(begin + entries.size());
  values_.resize(begin + entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    users_[begin + i] = entries[i].first;
    values_[begin + i] = entries[i].second;
  }
  offsets_.push_back(users_.size());
  return static_cast<uint32_t>(offsets_.size() - 2);
}

std::span<const UserIndex> InterestRows::RowUsers(uint32_t row) const {
  SES_CHECK_LT(row, num_rows());
  return {users_.data() + offsets_[row],
          static_cast<size_t>(offsets_[row + 1] - offsets_[row])};
}

std::span<const float> InterestRows::RowValues(uint32_t row) const {
  SES_CHECK_LT(row, num_rows());
  return {values_.data() + offsets_[row],
          static_cast<size_t>(offsets_[row + 1] - offsets_[row])};
}

float InterestRows::ValueAt(uint32_t row, UserIndex user) const {
  auto users = RowUsers(row);
  auto it = std::lower_bound(users.begin(), users.end(), user);
  if (it == users.end() || *it != user) return 0.0f;
  return RowValues(row)[static_cast<size_t>(it - users.begin())];
}

const CandidateEventInfo& SesInstance::event(EventIndex e) const {
  SES_CHECK_LT(e, events_.size());
  return events_[e];
}

const CompetingEventInfo& SesInstance::competing(CompetingIndex c) const {
  SES_CHECK_LT(c, competing_.size());
  return competing_[c];
}

uint32_t SesInstance::EventProfile(EventIndex e) const {
  SES_CHECK_LT(e, event_profile_.size());
  return event_profile_[e];
}

uint32_t SesInstance::CompetingProfile(CompetingIndex c) const {
  SES_CHECK_LT(c, competing_profile_.size());
  return competing_profile_[c];
}

std::span<const CompetingIndex> SesInstance::CompetingAt(
    IntervalIndex t) const {
  SES_CHECK_LT(t, interval_competing_.size());
  return interval_competing_[t];
}

InstanceBuilder& InstanceBuilder::SetNumUsers(uint32_t n) {
  num_users_ = n;
  return *this;
}

InstanceBuilder& InstanceBuilder::SetNumIntervals(uint32_t n) {
  num_intervals_ = n;
  return *this;
}

InstanceBuilder& InstanceBuilder::SetTheta(double theta) {
  theta_ = theta;
  return *this;
}

InstanceBuilder& InstanceBuilder::SetSigma(
    std::shared_ptr<const SigmaProvider> sigma) {
  sigma_ = std::move(sigma);
  return *this;
}

uint32_t InstanceBuilder::AddProfile(Row interests) {
  rows_.push_back({std::move(interests)});
  return static_cast<uint32_t>(rows_.size() - 1);
}

EventIndex InstanceBuilder::AddEventWithProfile(LocationId location,
                                                double required_resources,
                                                uint32_t profile) {
  events_.push_back({location, required_resources});
  event_rows_.push_back(profile);
  return static_cast<EventIndex>(events_.size() - 1);
}

CompetingIndex InstanceBuilder::AddCompetingEventWithProfile(
    IntervalIndex interval, uint32_t profile) {
  competing_.push_back({interval});
  competing_rows_.push_back(profile);
  return static_cast<CompetingIndex>(competing_.size() - 1);
}

util::Status InstanceBuilder::ValidateRow(const Row& row, size_t index) const {
  for (size_t i = 0; i < row.size(); ++i) {
    const auto& [user, value] = row[i];
    if (user >= num_users_) {
      return util::Status::OutOfRange(util::StrFormat(
          "profile %zu: user %u out of range (|U|=%u)", index, user,
          num_users_));
    }
    if (!(value > 0.0f) || value > 1.0f) {
      return util::Status::InvalidArgument(
          util::StrFormat("profile %zu: interest %f outside (0,1]", index,
                          static_cast<double>(value)));
    }
    if (i > 0 && row[i - 1].first >= user) {
      return util::Status::FailedPrecondition(util::StrFormat(
          "profile %zu: interest row not sorted/unique by user", index));
    }
  }
  return util::Status::Ok();
}

void InstanceBuilder::InternRows(SesInstance* instance) {
  // Pass 1: number the profiles in order of first use, candidate events
  // first. The table is open-addressed over profile ids and at most half
  // full; a pending row that repeats a profile is freed once compared.
  constexpr uint32_t kEmpty = ~uint32_t{0};
  std::vector<uint32_t> profile(rows_.size(), kEmpty);  // per pending row
  std::vector<uint32_t> first_row;  // per profile: its first pending row
  first_row.reserve(rows_.size());
  std::vector<uint32_t> table(std::bit_ceil(2 * rows_.size() + 1), kEmpty);
  const size_t mask = table.size() - 1;
  size_t distinct_entries = 0;
  auto intern = [&](uint32_t r) {
    if (profile[r] != kEmpty) return profile[r];
    PendingRow& pending = rows_[r];
    size_t slot = pending.hash & mask;
    for (; table[slot] != kEmpty; slot = (slot + 1) & mask) {
      const PendingRow& first = rows_[first_row[table[slot]]];
      if (first.hash == pending.hash &&
          SameRow(first.entries, pending.entries)) {
        break;
      }
    }
    if (table[slot] == kEmpty) {
      table[slot] = static_cast<uint32_t>(first_row.size());
      first_row.push_back(r);
      distinct_entries += pending.entries.size();
    } else {
      Row().swap(pending.entries);
    }
    return profile[r] = table[slot];
  };
  instance->event_profile_.resize(event_rows_.size());
  for (size_t e = 0; e < event_rows_.size(); ++e) {
    const uint32_t p = intern(event_rows_[e]);
    instance->event_profile_[e] = p;
    instance->num_interest_entries_ += rows_[first_row[p]].entries.size();
  }
  instance->competing_profile_.resize(competing_rows_.size());
  for (size_t c = 0; c < competing_rows_.size(); ++c) {
    instance->competing_profile_[c] = intern(competing_rows_[c]);
  }

  // Pass 2: copy each profile's row into one exact reservation, freeing
  // it once copied.
  InterestRows& rows = instance->profiles_;
  rows.Reserve(first_row.size(), distinct_entries);
  for (const uint32_t r : first_row) {
    rows.AddRow(rows_[r].entries);
    Row().swap(rows_[r].entries);
  }
  rows_.clear();
}

util::Result<SesInstance> InstanceBuilder::Build() {
  if (num_users_ == 0) {
    return util::Status::InvalidArgument("instance needs at least one user");
  }
  if (num_intervals_ == 0) {
    return util::Status::InvalidArgument(
        "instance needs at least one interval");
  }
  if (!IsFiniteNonNegative(theta_)) {
    return util::Status::InvalidArgument(
        util::StrFormat("theta %g must be finite and non-negative", theta_));
  }
  if (sigma_ == nullptr) {
    return util::Status::InvalidArgument("sigma provider not set");
  }
  for (size_t r = 0; r < rows_.size(); ++r) {
    SES_RETURN_IF_ERROR(ValidateRow(rows_[r].entries, r));
    // Hashed while validation has the row in cache.
    rows_[r].hash = HashRow(rows_[r].entries);
  }
  for (size_t e = 0; e < events_.size(); ++e) {
    if (!IsFiniteNonNegative(events_[e].required_resources)) {
      return util::Status::InvalidArgument(util::StrFormat(
          "event %zu: required resources %g must be finite and non-negative",
          e, events_[e].required_resources));
    }
    if (event_rows_[e] >= rows_.size()) {
      return util::Status::OutOfRange(util::StrFormat(
          "event %zu: profile %u out of range (%zu added)", e,
          event_rows_[e], rows_.size()));
    }
  }
  for (size_t c = 0; c < competing_.size(); ++c) {
    if (competing_[c].interval >= num_intervals_) {
      return util::Status::OutOfRange(util::StrFormat(
          "competing event %zu: interval %u out of range", c,
          competing_[c].interval));
    }
    if (competing_rows_[c] >= rows_.size()) {
      return util::Status::OutOfRange(util::StrFormat(
          "competing event %zu: profile %u out of range (%zu added)", c,
          competing_rows_[c], rows_.size()));
    }
  }

  SesInstance instance;
  instance.num_users_ = num_users_;
  instance.num_intervals_ = num_intervals_;
  instance.theta_ = theta_;
  instance.sigma_ = std::move(sigma_);
  instance.events_ = std::move(events_);
  instance.competing_ = std::move(competing_);
  instance.interval_competing_.resize(num_intervals_);
  for (size_t c = 0; c < instance.competing_.size(); ++c) {
    instance.interval_competing_[instance.competing_[c].interval].push_back(
        static_cast<CompetingIndex>(c));
  }
  InternRows(&instance);
  return instance;
}

}  // namespace ses::core
