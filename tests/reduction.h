#ifndef SES_TESTS_REDUCTION_H_
#define SES_TESTS_REDUCTION_H_

/// \file
/// The Theorem 1 construction: a polynomial reduction from MKPI to SES,
/// made executable so the hardness proof can be verified numerically.
///
/// Associations (paper proof sketch):
///   bins            -> time intervals
///   bin capacity    -> available resources theta
///   items           -> candidate events
///   item weight     -> required resources xi
///   item profit p   -> interest mu = p * K / (1 - p)
///   total profit    -> expected attendance
///
/// Restricted instance: |U| = |E| (one user per item); each interval has
/// exactly one competing event in which every user has the same interest
/// K; user i is interested only in event i; sigma is one constant; every
/// event gets a distinct location so only the resource constraint binds.
///
/// With that construction, when user i's event is scheduled anywhere, the
/// attendance probability is sigma * mu_i / (K + mu_i) = sigma * p_i
/// (events of other users contribute nothing to user i's denominator), so
///
///   Omega(S) = sigma * sum of profits of scheduled items,
///
/// and a size-k SES optimum corresponds exactly to a k-item MKPI optimum.

#include "core/instance.h"
#include "tests/mkpi.h"
#include "util/status.h"

namespace ses::core {

/// Parameters of the reduction.
struct ReductionParams {
  /// The common interest K of every user in each interval's competing
  /// event. Must satisfy p*K/(1-p) <= 1 for all profits p.
  double competing_interest = 0.2;
  /// The constant social-activity probability.
  double sigma = 1.0;
};

/// Builds the SES instance encoding \p mkpi. Profits must lie in (0, 1)
/// (use NormalizeMkpiProfits first when needed); fails with
/// InvalidArgument when a derived interest leaves (0, 1].
[[nodiscard]] util::Result<SesInstance> ReduceMkpiToSes(
    const MkpiInstance& mkpi, const ReductionParams& params);

/// Rescales profits into (0, 1) by dividing by (max profit * slack); the
/// argmax packing is unchanged. \p slack must exceed 1.
MkpiInstance NormalizeMkpiProfits(MkpiInstance mkpi, double slack = 1.25);

/// The utility that the reduced SES instance yields for a packing with
/// total profit \p mkpi_profit (namely sigma * profit).
double ExpectedSesUtility(const ReductionParams& params, double mkpi_profit);

}  // namespace ses::core

#endif  // SES_TESTS_REDUCTION_H_
