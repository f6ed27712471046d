#ifndef SES_CORE_KERNELS_H_
#define SES_CORE_KERNELS_H_

/// \file
/// Structure-of-arrays interval state + the batched span kernels of the
/// O(|E|·|T|) score loop (Algorithm 1 lines 2–4):
///
///   - IntervalSoA: one bundle of contiguous, 64-byte-aligned spans per
///     loaded interval — denominators D, scheduled mass M, the old Luce
///     term M / D and the sigma row. Dense, index-addressed, rebuilt by
///     every AttendanceModel::LoadInterval.
///   - IntervalBlock: D and the sigma rows of 4 intervals with no
///     scheduled event, lane-interleaved per user, so score generation
///     gets an event's gain at all 4 from one pass over its row
///     (kernels::LuceGainBlock).
///   - kernels::*: the inner loops as free functions over
///     restrict-qualified pointers. No per-element virtual dispatch, no
///     branches the compiler cannot if-convert, no aliasing it has to
///     assume — the shape auto-vectorizers want.
///
/// Numerics contract (pinned by tests/core_kernel_diff_test.cc): every
/// kernel preserves the evaluation order of the scalar code it
/// replaced, element i strictly after element i-1 into a single
/// accumulator, so results are BIT-IDENTICAL to the reference loops —
/// the speed comes from devirtualization, aliasing guarantees, and
/// lane-parallel arithmetic inside one element, never from
/// re-association. Kernels compared against the from-scratch
/// objective.h references (different association by construction) are
/// instead held to a documented 1e-6 relative tolerance. Both pins
/// assume strict IEEE semantics with no fused multiply-add, hence the
/// fast-math guard below and the root build's -ffp-contract=off; the
/// lint CI job additionally greps the build flags for both.

#if defined(__FAST_MATH__)
#error \
    "core/kernels.h requires strict IEEE float semantics: the differential \
kernel pins (tests/core_kernel_diff_test.cc) assert bit-identity and tight \
tolerances that -ffast-math breaks. Build without -ffast-math."
#endif

#include <cstddef>
#include <cstdint>
#include <span>

#include "core/types.h"
#include "util/aligned.h"
#include "util/hot_annotations.h"

namespace ses::core {

/// Structure-of-arrays per-user state for one loaded interval. All
/// spans are |U| long, contiguous, and util::kKernelAlignment-aligned,
/// so steady-state loads never allocate.
///
/// D and M are doubles: the incremental engine accumulates interest
/// mass across Apply/Unapply, where float rounding would compound, and
/// every pinned gain and utility is computed from these doubles. Sigma
/// stays float — it is read-only within a load, so no precision
/// compounds.
///
/// `ratio` carries the old Luce term D > 0 ? M / D : 0 per user, so the
/// gain kernel divides once per term instead of twice. A load zeroes it
/// with D and M, and TouchMass, the one kernel that changes M, rewrites
/// it with exactly that expression right after the change. Competing
/// rows (AddMass) change D while M is still 0, so their users keep
/// ratio 0, which is what the expression gives for M = 0.
struct IntervalSoA {
  explicit IntervalSoA(size_t num_users)
      : denom(num_users, 0.0),
        sched_mass(num_users, 0.0),
        ratio(num_users, 0.0),
        sigma(num_users, 0.0f) {}

  util::AlignedVector<double> denom;       ///< D = C + M per user
  util::AlignedVector<double> sched_mass;  ///< M per user
  util::AlignedVector<double> ratio;       ///< D > 0 ? M / D : 0 per user
  util::AlignedVector<float> sigma;        ///< sigma(u, t) scratch row
};

/// Per-user state for kWidth intervals scored in one pass over each
/// event row (kernels::LuceGainBlock). Only intervals with no scheduled
/// event go in a block: there M = 0 and the carried ratio is 0, so the
/// Eq. 4 term is exactly x / (D + x) and D is the competing mass alone.
///
/// `denom` (D) and `sigma` are lane-interleaved, [u * kWidth + lane],
/// so one user's lanes share a cache line. `row` is the |U| scratch a
/// provider's FillInterval writes before it is interleaved. A partial
/// block leaves its unused lanes at D = 0 and sigma = 0, whose terms
/// are finite zeros the caller never stores. 52 bytes per user; the
/// caller sizes it once, outside the hot loop.
struct IntervalBlock {
  static constexpr size_t kWidth = 4;

  explicit IntervalBlock(size_t num_users)
      : denom(num_users * kWidth, 0.0),
        sigma(num_users * kWidth, 0.0f),
        row(num_users, 0.0f) {}

  util::AlignedVector<double> denom;  ///< D per user and lane
  util::AlignedVector<float> sigma;   ///< sigma(u, t) per user and lane
  util::AlignedVector<float> row;     ///< one lane's sigma row, |U| long
};

namespace kernels {

/// `double* SES_RESTRICT p`: no other pointer in the kernel aliases p.
/// Every IntervalSoA span and every CSR row is a distinct allocation,
/// so the promise holds by construction; it is what licenses the
/// compiler to keep D/M/sigma lanes in registers across the loop.
#if defined(__GNUC__) || defined(__clang__)
#define SES_RESTRICT __restrict__
#else
#define SES_RESTRICT
#endif

/// SplitMix64-style finalizer over the packed (seed, u, t) key, scaled
/// to a double in [0, 1). The storage-free Uniform sigma of the paper's
/// experimental setting (HashUniformSigma delegates here).
SES_HOT inline double HashSigma(uint64_t seed, UserIndex u,
                                IntervalIndex t) {
  uint64_t z = seed ^ (static_cast<uint64_t>(u) * 0x9e3779b97f4a7c15ULL) ^
               (static_cast<uint64_t>(t) + 0xbf58476d1ce4e5b9ULL) *
                   0x94d049bb133111ebULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z = z ^ (z >> 31);
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

/// out[u] = value for all u (ConstSigma's bulk row).
SES_HOT void FillSigmaConst(float value, std::span<float> out);

/// out[u] = HashSigma(seed, u, t) for all u (HashUniformSigma's bulk
/// row): pure integer mixing per lane, the textbook vectorizable loop.
SES_HOT void FillSigmaHash(uint64_t seed, IntervalIndex t,
                           std::span<float> out);

/// out = row[0 .. out.size()) (DenseSigma's bulk row).
SES_HOT void CopySigmaRow(std::span<const float> row, std::span<float> out);

/// Scatter-adds one competing row: denom[users[i] * stride] +=
/// values[i], in row order. Stride 1 folds into IntervalSoA::denom;
/// stride IntervalBlock::kWidth folds into one lane of a block.
/// Competing mass is never removed and is folded before any scheduled
/// row, so M and the ratio are not written.
SES_HOT void AddMass(const UserIndex* SES_RESTRICT users,
                     const float* SES_RESTRICT values, size_t n,
                     size_t stride, double* SES_RESTRICT denom);

/// Adds sign * values[i] to D and M (+1 to schedule an event's row, -1
/// to remove it), clamping tiny negative cancellation residue to zero,
/// then rewrites ratio[u] = D > 0 ? M / D : 0 from the clamped values.
/// The only kernel that writes M or the ratio.
SES_HOT void TouchMass(const UserIndex* SES_RESTRICT users,
                       const float* SES_RESTRICT values, size_t n,
                       double sign, double* SES_RESTRICT denom,
                       double* SES_RESTRICT sched_mass,
                       double* SES_RESTRICT ratio);

/// Eq. 4 (the Luce-choice gain): sum over the event's sparse interest
/// row of sigma[u] * ((M + x) / (D + x) - ratio[u]), where ratio[u] is
/// the carried D > 0 ? M / D : 0. Sequential single-accumulator sum —
/// bit-identical to the two-division scalar reference.
SES_HOT double LuceGain(const UserIndex* SES_RESTRICT users,
                        const float* SES_RESTRICT values, size_t n,
                        const double* SES_RESTRICT denom,
                        const double* SES_RESTRICT sched_mass,
                        const double* SES_RESTRICT ratio,
                        const float* SES_RESTRICT sigma);

/// Rows scored together by LuceGainRows.
inline constexpr size_t kGainRows = 4;

/// LuceGain of kGainRows sparse rows at one loaded interval: out[r] =
/// LuceGain(users[r], values[r], n[r], ...). One pass walks every row
/// up to the shortest length, then each row finishes alone. Each row
/// has its own accumulator and sums in row order, so out[r] bit-equals
/// LuceGain; the speed comes from overlapping the rows' independent
/// divisions and sums, never from re-association. `out` holds
/// kGainRows doubles. A row may be empty, and then its pointers are
/// never read.
SES_HOT void LuceGainRows(const UserIndex* const* users,
                          const float* const* values, const size_t* n,
                          const double* SES_RESTRICT denom,
                          const double* SES_RESTRICT sched_mass,
                          const double* SES_RESTRICT ratio,
                          const float* SES_RESTRICT sigma,
                          double* SES_RESTRICT out);

/// LuceGain at every lane of an IntervalBlock (M = 0): out[lane] = sum
/// over the event's row of sigma[u * kWidth + lane] * (x / (D + x)),
/// with D = denom[u * kWidth + lane]. One pass over the row; each lane
/// has its own accumulator and sums in row order, so out[lane]
/// bit-equals LuceGain at that lane's interval (with M = 0 and ratio 0,
/// M + x and term - ratio are exact). The compiler vectorizes across
/// lanes, never within one. `out` holds kWidth doubles.
SES_HOT void LuceGainBlock(const UserIndex* SES_RESTRICT users,
                           const float* SES_RESTRICT values, size_t n,
                           const double* SES_RESTRICT denom,
                           const float* SES_RESTRICT sigma,
                           double* SES_RESTRICT out);

}  // namespace kernels
}  // namespace ses::core

#endif  // SES_CORE_KERNELS_H_
