#ifndef SES_CORE_INSTANCE_H_
#define SES_CORE_INSTANCE_H_

/// \file
/// The SES problem instance: candidate events E, disjoint time intervals
/// T, competing events C, users U, interest function mu, activity
/// probabilities sigma, organizer resources theta (paper Section II).
///
/// Interests are stored as CSR sparse rows (sorted (user, mu) pairs);
/// virtually all users have zero interest in any given event, and every
/// algorithm in this library only ever iterates the non-zero entries.
///
/// Rows are interned: InstanceBuilder::Build keeps each distinct row, a
/// *profile*, once, and candidate and competing events both map to
/// profiles. Events with bit-identical rows are *twins*; the synthetic
/// Meetup generator gives every event of one organizer group the same
/// row, so most events have twins. A marginal gain depends on its event
/// only through the row, so twins score alike and the score fill and
/// AttendanceModel::RescoreRow score each profile once, and
/// SaveInstance writes each profile once.

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/sigma.h"
#include "core/types.h"
#include "util/status.h"

namespace ses::core {

/// Static properties of a candidate event.
struct CandidateEventInfo {
  /// The place (stage) hosting the event; unique per interval.
  LocationId location = 0;
  /// Resources xi_e required to organize the event.
  double required_resources = 0.0;
};

/// Static properties of a competing (third-party, pre-scheduled) event.
struct CompetingEventInfo {
  /// The interval the third party scheduled it at.
  IntervalIndex interval = kInvalidIndex;
};

/// CSR container of sparse interest rows.
class InterestRows {
 public:
  /// Appends a row; \p entries must be sorted by user and hold mu in
  /// (0, 1]. Returns the row id.
  uint32_t AddRow(std::span<const std::pair<UserIndex, float>> entries);

  /// Reserves room for \p rows more rows holding \p entries entries.
  void Reserve(size_t rows, size_t entries);

  /// Number of rows.
  size_t num_rows() const { return offsets_.size() - 1; }

  /// Sorted user ids of row \p row.
  std::span<const UserIndex> RowUsers(uint32_t row) const;

  /// Interest values parallel to RowUsers(row).
  std::span<const float> RowValues(uint32_t row) const;

  /// Looks up mu(user, row); 0 when absent.
  float ValueAt(uint32_t row, UserIndex user) const;

 private:
  std::vector<uint64_t> offsets_{0};
  std::vector<UserIndex> users_;
  std::vector<float> values_;
};

/// An immutable SES instance. Build through InstanceBuilder.
class SesInstance {
 public:
  /// Number of users |U|.
  uint32_t num_users() const { return num_users_; }

  /// Number of candidate events |E|.
  uint32_t num_events() const {
    return static_cast<uint32_t>(events_.size());
  }

  /// Number of disjoint time intervals |T|.
  uint32_t num_intervals() const { return num_intervals_; }

  /// Number of competing events |C|.
  uint32_t num_competing() const {
    return static_cast<uint32_t>(competing_.size());
  }

  /// Organizer resources theta available within any single interval.
  double theta() const { return theta_; }

  /// Candidate event metadata.
  const CandidateEventInfo& event(EventIndex e) const;

  /// Competing event metadata.
  const CompetingEventInfo& competing(CompetingIndex c) const;

  /// Competing events pre-scheduled at interval \p t (C_t).
  std::span<const CompetingIndex> CompetingAt(IntervalIndex t) const;

  /// Profile (distinct interest row) of candidate event \p e. Twins
  /// share one; so do a candidate and a competing event with the same
  /// row. Ids are dense in [0, num_profiles()) and numbered in order of
  /// first use: candidate events in order, then competing events.
  uint32_t EventProfile(EventIndex e) const;

  /// Profile of competing event \p c.
  uint32_t CompetingProfile(CompetingIndex c) const;

  /// Number of distinct interest rows among all events.
  uint32_t num_profiles() const {
    return static_cast<uint32_t>(profiles_.num_rows());
  }

  /// Sparse interest row of profile \p p.
  std::span<const UserIndex> ProfileUsers(uint32_t p) const {
    return profiles_.RowUsers(p);
  }
  std::span<const float> ProfileValues(uint32_t p) const {
    return profiles_.RowValues(p);
  }

  /// Sparse interest row of candidate event \p e.
  std::span<const UserIndex> EventUsers(EventIndex e) const {
    return ProfileUsers(EventProfile(e));
  }
  std::span<const float> EventValues(EventIndex e) const {
    return ProfileValues(EventProfile(e));
  }

  /// mu(user, candidate event); 0 when the user is uninterested.
  float EventInterest(EventIndex e, UserIndex u) const {
    return profiles_.ValueAt(EventProfile(e), u);
  }

  /// Sparse interest row of competing event \p c.
  std::span<const UserIndex> CompetingUsers(CompetingIndex c) const {
    return ProfileUsers(CompetingProfile(c));
  }
  std::span<const float> CompetingValues(CompetingIndex c) const {
    return ProfileValues(CompetingProfile(c));
  }

  /// mu(user, competing event); 0 when the user is uninterested.
  float CompetingInterest(CompetingIndex c, UserIndex u) const {
    return profiles_.ValueAt(CompetingProfile(c), u);
  }

  /// The activity-probability provider sigma.
  const SigmaProvider& sigma() const { return *sigma_; }

  /// Total non-zero candidate interest entries, every twin's counted
  /// (for reporting).
  size_t num_interest_entries() const { return num_interest_entries_; }

 private:
  friend class InstanceBuilder;
  SesInstance() = default;

  uint32_t num_users_ = 0;
  uint32_t num_intervals_ = 0;
  double theta_ = 0.0;
  std::vector<CandidateEventInfo> events_;
  std::vector<CompetingEventInfo> competing_;
  std::vector<std::vector<CompetingIndex>> interval_competing_;
  /// One row per profile.
  InterestRows profiles_;
  std::vector<uint32_t> event_profile_;
  std::vector<uint32_t> competing_profile_;
  size_t num_interest_entries_ = 0;
  std::shared_ptr<const SigmaProvider> sigma_;
};

/// Step-by-step construction and validation of a SesInstance.
///
/// Interest rows are added either with their event (AddEvent,
/// AddCompetingEvent) or once through AddProfile and then named by id
/// (AddEventWithProfile, AddCompetingEventWithProfile), so a caller that
/// knows its twins hands each distinct row over only once.
class InstanceBuilder {
 public:
  using Row = std::vector<std::pair<UserIndex, float>>;

  InstanceBuilder& SetNumUsers(uint32_t n);
  InstanceBuilder& SetNumIntervals(uint32_t n);
  InstanceBuilder& SetTheta(double theta);
  InstanceBuilder& SetSigma(std::shared_ptr<const SigmaProvider> sigma);

  /// Adds an interest row: sorted by user, mu in (0, 1]. Returns its
  /// id, numbered from 0 in the order of the calls; Build keeps only
  /// the rows that events name, each distinct row once.
  uint32_t AddProfile(Row interests);

  /// Adds a candidate event whose row is \p profile, an id AddProfile
  /// returns by the time Build runs. Returns its EventIndex.
  EventIndex AddEventWithProfile(LocationId location,
                                 double required_resources,
                                 uint32_t profile);

  /// Adds a competing event pre-scheduled at \p interval whose row is
  /// \p profile.
  CompetingIndex AddCompetingEventWithProfile(IntervalIndex interval,
                                              uint32_t profile);

  /// Adds a candidate event with its own row.
  EventIndex AddEvent(LocationId location, double required_resources,
                      Row interests) {
    return AddEventWithProfile(location, required_resources,
                               AddProfile(std::move(interests)));
  }

  /// Adds a competing event with its own row.
  CompetingIndex AddCompetingEvent(IntervalIndex interval, Row interests) {
    return AddCompetingEventWithProfile(interval,
                                        AddProfile(std::move(interests)));
  }

  /// Validates and produces the instance, keeping each distinct
  /// interest row once: rows are hashed, and rows with equal hashes are
  /// compared user by user and float bit by float bit. The builder is
  /// left in a moved-from state on success.
  [[nodiscard]] util::Result<SesInstance> Build();

 private:
  struct PendingRow {
    Row entries;
    /// Hash of the entries' users and float bits, set once validated.
    uint64_t hash = 0;
  };

  /// Interns the pending rows that events name, candidate events first:
  /// sets each event's profile and copies each distinct row into
  /// \p instance's CSR in order of first use, freeing the pending rows.
  void InternRows(SesInstance* instance);

  [[nodiscard]] util::Status ValidateRow(const Row& row, size_t index) const;

  uint32_t num_users_ = 0;
  uint32_t num_intervals_ = 0;
  double theta_ = 0.0;
  std::shared_ptr<const SigmaProvider> sigma_;
  std::vector<PendingRow> rows_;
  std::vector<CandidateEventInfo> events_;
  std::vector<uint32_t> event_rows_;
  std::vector<CompetingEventInfo> competing_;
  std::vector<uint32_t> competing_rows_;
};

}  // namespace ses::core

#endif  // SES_CORE_INSTANCE_H_
