#ifndef SES_CORE_ATTENDANCE_H_
#define SES_CORE_ATTENDANCE_H_

/// \file
/// Incremental Luce-choice attendance engine.
///
/// The assignment score of Eq. 4 telescopes into a per-user closed form.
/// Let, for user u at interval t,
///
///   C = sum of u's interest over competing events C_t,
///   M = sum of u's interest over already-scheduled events E_t(S),
///   D = C + M,
///   x = mu(u, r) for the event r being placed.
///
/// Then the change in the interval's utility contributed by u is
///
///   gain_u = sigma(u,t) * [ (M + x) / (D + x)  -  (D > 0 ? M / D : 0) ].
///
/// Two facts drive the algorithms built on top (proofs inline in the
/// implementation; property-tested in tests/core_attendance_test.cc):
///
///   (1) gain_u >= 0, so greedy progress never decreases utility;
///   (2) d(gain_u)/dM < 0 whenever C > 0, i.e. marginal gains only shrink
///       as the interval fills up — which is what justifies GRD's
///       "only update the chosen interval" rule.
///
/// The engine keeps its dense per-user scratch for a single "loaded"
/// interval at a time as a structure-of-arrays bundle (core::IntervalSoA:
/// D, M, the carried ratio and the sigma row — contiguous 64-byte-aligned
/// spans), and every inner loop over that scratch is a batched span
/// kernel from core/kernels.h rather than an open-coded scalar loop.
/// GRD's access pattern (one interval per update pass once score
/// generation has filled the grid) makes this the right trade: marginal
/// gains cost O(nnz(row)) with pure array reads, through
/// restrict-qualified pointers the compiler can vectorize. The old term
/// D > 0 ? M / D : 0 is the same for every event scored at the loaded
/// interval, so it is carried per user in the bundle
/// (IntervalSoA::ratio), rewritten only where D or M change, and each
/// gain term costs one division.
///
/// Loading an interval zeroes that scratch over all |U| users and
/// rebuilds it from the instance: the competing-event mass, the
/// provider's sigma row and the scheduled events, in that order. An
/// update pass (RescoreRow) scores the listed cells of an interval row
/// under one load, and each profile among them once: twins
/// (core/instance.h) have one row and so one gain.

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/instance.h"
#include "core/kernels.h"
#include "core/schedule.h"
#include "core/types.h"
#include "util/hot_annotations.h"

namespace ses::core {

/// The score of a grid cell that fails CanAssign. RescoreRow writes it,
/// and a strict-maximum scan never selects it.
inline constexpr double kNoScore = -std::numeric_limits<double>::infinity();

/// Incremental Eq. 4 engine over an evolving schedule.
class AttendanceModel {
 public:
  /// A model of the empty schedule.
  explicit AttendanceModel(const SesInstance& instance)
      : AttendanceModel(Schedule(instance)) {}

  /// A model that starts from \p start (a replayed warm start, say).
  /// Its events fold into an interval's scratch when the interval is
  /// loaded, so nothing is scored here.
  explicit AttendanceModel(Schedule start);

  /// The evolving schedule.
  const Schedule& schedule() const { return schedule_; }

  /// Validity check: unassigned event + feasibility (delegates to
  /// Schedule::CanAssign).
  bool CanAssign(EventIndex e, IntervalIndex t) const {
    return schedule_.CanAssign(e, t);
  }

  /// Eq. 4: utility gain of assigning unassigned event \p e to \p t under
  /// the current schedule. Does not modify the schedule. The sum itself
  /// is kernels::LuceGain over the loaded SoA spans.
  ///
  /// SES_HOT: the greedy family's rescoring (Algorithm 1 lines 5–13)
  /// and score generation at warm-started intervals funnel through here
  /// — the hot-path lint proves this call tree allocation-, lock-, and
  /// IO-free, and tests/core_hot_path_alloc_test.cc re-proves it at
  /// runtime.
  SES_HOT double MarginalGain(EventIndex e, IntervalIndex t);

  /// The greedy family's update pass at interval \p t, over the listed
  /// \p events: row[e] = MarginalGain(e, t) for each listed event with
  /// CanAssign(e, t), and kNoScore for each other listed event. \p row
  /// is interval t's row of the |T| x |E| score grid, |E| cells; cells
  /// of unlisted events are neither read nor written. GRD lists every
  /// event, bestfit the ones it can still visit. The pass loads t, lists
  /// the distinct profiles among the events that fit, scores them
  /// kernels::kGainRows at a time (kernels::LuceGainRows) and copies
  /// each gain to the profile's events, so gain_evaluations() grows by
  /// those profiles. Returns the number of cells rescored, twins
  /// included.
  SES_HOT uint64_t RescoreRow(IntervalIndex t, std::span<double> row,
                              std::span<const EventIndex> events);

  /// Assigns e to t (must be valid) and returns its gain, the
  /// MarginalGain(e, t) before the assignment. The evaluation is
  /// bookkeeping and is not counted in gain_evaluations().
  double Apply(EventIndex e, IntervalIndex t);

  /// Removes assigned event \p e.
  void Unapply(EventIndex e);

  /// Number of Eq. 4 evaluations performed so far (for complexity
  /// accounting in the experiments).
  uint64_t gain_evaluations() const { return gain_evaluations_; }

 private:
  /// Rebuilds the SoA scratch (denominators, scheduled mass, old-term
  /// ratio, sigma row) for interval \p t unless already loaded: zeroes
  /// D, M and the ratio, folds the competing rows (kernels::AddMass),
  /// fills sigma, and adds the scheduled rows (TouchLoaded). Allocation-
  /// free: every SoA span is sized to |U| at construction.
  SES_HOT void LoadInterval(IntervalIndex t);

  /// Adds (sign=+1) or removes (sign=-1) event \p e's interest row from
  /// the loaded scratch, ratio included (kernels::TouchMass).
  SES_HOT void TouchLoaded(EventIndex e, double sign);

  const SesInstance* instance_;
  Schedule schedule_;

  IntervalIndex loaded_ = kInvalidIndex;
  /// D / M / ratio / sigma scratch for the loaded interval, as
  /// contiguous aligned spans (see core/kernels.h for the layout and the
  /// bit-identity contract of the kernels that walk it).
  IntervalSoA soa_;

  /// RescoreRow's per-profile scratch, one entry per profile, sized at
  /// construction: the call that last listed the profile, and its gain.
  struct ProfileGain {
    uint64_t call = 0;
    double gain = 0.0;
  };
  std::vector<ProfileGain> profile_gains_;
  /// The profiles one RescoreRow call scores, in the order first seen;
  /// |P| long, so listing never grows it.
  std::vector<uint32_t> pending_profiles_;
  uint64_t rescore_calls_ = 0;

  uint64_t gain_evaluations_ = 0;
};

}  // namespace ses::core

#endif  // SES_CORE_ATTENDANCE_H_
