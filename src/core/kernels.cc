#include "core/kernels.h"

#include <algorithm>

namespace ses::core::kernels {

// Each kernel body is the scalar loop it replaced, verbatim in
// operation order — the differential harness asserts bit-identity, so
// any "obvious" algebraic cleanup here is a test failure. What changed
// is the calling convention: restrict-qualified raw pointers and no
// virtual dispatch, so the compiler vectorizes instead of assuming
// aliasing. The one moved operation is the old Luce term M / D:
// TouchMass computes it once per change of D and M, with the same
// expression on the same doubles, and the gain kernel reads it.

void FillSigmaConst(float value, std::span<float> out) {
  std::fill(out.begin(), out.end(), value);
}

void FillSigmaHash(uint64_t seed, IntervalIndex t, std::span<float> out) {
  float* SES_RESTRICT dst = out.data();
  const size_t n = out.size();
  for (size_t u = 0; u < n; ++u) {
    dst[u] = static_cast<float>(
        HashSigma(seed, static_cast<UserIndex>(u), t));
  }
}

void CopySigmaRow(std::span<const float> row, std::span<float> out) {
  std::copy(row.begin(), row.begin() + out.size(), out.begin());
}

void AddMass(const UserIndex* SES_RESTRICT users,
             const float* SES_RESTRICT values, size_t n, size_t stride,
             double* SES_RESTRICT denom) {
  for (size_t i = 0; i < n; ++i) {
    denom[static_cast<size_t>(users[i]) * stride] +=
        static_cast<double>(values[i]);
  }
}

void TouchMass(const UserIndex* SES_RESTRICT users,
               const float* SES_RESTRICT values, size_t n, double sign,
               double* SES_RESTRICT denom, double* SES_RESTRICT sched_mass,
               double* SES_RESTRICT ratio) {
  for (size_t i = 0; i < n; ++i) {
    const UserIndex u = users[i];
    const double mu = sign * static_cast<double>(values[i]);
    denom[u] += mu;
    sched_mass[u] += mu;
    // Guard against negative residue from floating-point cancellation.
    if (denom[u] < 0.0) denom[u] = 0.0;
    if (sched_mass[u] < 0.0) sched_mass[u] = 0.0;
    ratio[u] = denom[u] > 0.0 ? sched_mass[u] / denom[u] : 0.0;
  }
}

double LuceGain(const UserIndex* SES_RESTRICT users,
                const float* SES_RESTRICT values, size_t n,
                const double* SES_RESTRICT denom,
                const double* SES_RESTRICT sched_mass,
                const double* SES_RESTRICT ratio,
                const float* SES_RESTRICT sigma) {
  double gain = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const UserIndex u = users[i];
    const double x = static_cast<double>(values[i]);
    // (M + x) / (D + x) - M / D; the old term is the carried ratio,
    // which is 0 when D == 0 (then M == 0 as well and the new term is
    // x / x = 1).
    const double term_new = (sched_mass[u] + x) / (denom[u] + x);
    gain += static_cast<double>(sigma[u]) * (term_new - ratio[u]);
  }
  return gain;
}

void LuceGainBlock(const UserIndex* SES_RESTRICT users,
                   const float* SES_RESTRICT values, size_t n,
                   const double* SES_RESTRICT denom,
                   const float* SES_RESTRICT sigma,
                   double* SES_RESTRICT out) {
  constexpr size_t kWidth = IntervalBlock::kWidth;
  double gain[kWidth] = {};
  for (size_t i = 0; i < n; ++i) {
    const size_t base = static_cast<size_t>(users[i]) * kWidth;
    const double x = static_cast<double>(values[i]);
    // LuceGain's term with M = 0 and ratio = 0: (0 + x) / (D + x) - 0.
    for (size_t lane = 0; lane < kWidth; ++lane) {
      gain[lane] += static_cast<double>(sigma[base + lane]) *
                    (x / (denom[base + lane] + x));
    }
  }
  for (size_t lane = 0; lane < kWidth; ++lane) out[lane] = gain[lane];
}

}  // namespace ses::core::kernels
