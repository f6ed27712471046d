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

void LuceGainRows(const UserIndex* const* users, const float* const* values,
                  const size_t* n, const double* SES_RESTRICT denom,
                  const double* SES_RESTRICT sched_mass,
                  const double* SES_RESTRICT ratio,
                  const float* SES_RESTRICT sigma, double* SES_RESTRICT out) {
  static_assert(kGainRows == 4, "the shared loop names four rows");
  double gain[kGainRows] = {};
  size_t shared = n[0];
  for (size_t r = 1; r < kGainRows; ++r) shared = std::min(shared, n[r]);
  // One restrict pointer per row keeps the rows in registers. The four
  // sums do not wait on one another, so their divisions overlap, and
  // the compiler pairs some of them into vector instructions.
  const UserIndex* SES_RESTRICT u0 = users[0];
  const UserIndex* SES_RESTRICT u1 = users[1];
  const UserIndex* SES_RESTRICT u2 = users[2];
  const UserIndex* SES_RESTRICT u3 = users[3];
  const float* SES_RESTRICT x0 = values[0];
  const float* SES_RESTRICT x1 = values[1];
  const float* SES_RESTRICT x2 = values[2];
  const float* SES_RESTRICT x3 = values[3];
  for (size_t i = 0; i < shared; ++i) {
    const UserIndex u[kGainRows] = {u0[i], u1[i], u2[i], u3[i]};
    const double x[kGainRows] = {
        static_cast<double>(x0[i]), static_cast<double>(x1[i]),
        static_cast<double>(x2[i]), static_cast<double>(x3[i])};
    for (size_t r = 0; r < kGainRows; ++r) {
      gain[r] += static_cast<double>(sigma[u[r]]) *
                 ((sched_mass[u[r]] + x[r]) / (denom[u[r]] + x[r]) -
                  ratio[u[r]]);
    }
  }
  for (size_t r = 0; r < kGainRows; ++r) {
    for (size_t i = shared; i < n[r]; ++i) {
      const UserIndex u = users[r][i];
      const double x = static_cast<double>(values[r][i]);
      const double term_new = (sched_mass[u] + x) / (denom[u] + x);
      gain[r] += static_cast<double>(sigma[u]) * (term_new - ratio[u]);
    }
    out[r] = gain[r];
  }
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
