#include "tests/reduction.h"

#include <memory>

#include "util/string_util.h"

namespace ses::core {

util::Result<SesInstance> ReduceMkpiToSes(const MkpiInstance& mkpi,
                                          const ReductionParams& params) {
  SES_RETURN_IF_ERROR(mkpi.Validate());
  if (params.competing_interest <= 0.0 || params.competing_interest > 1.0) {
    return util::Status::InvalidArgument(
        "competing_interest must be in (0,1]");
  }
  if (params.sigma <= 0.0 || params.sigma > 1.0) {
    return util::Status::InvalidArgument("sigma must be in (0,1]");
  }

  const size_t n = mkpi.weights.size();
  InstanceBuilder builder;
  builder.SetNumUsers(static_cast<uint32_t>(n))
      .SetNumIntervals(static_cast<uint32_t>(mkpi.num_bins))
      .SetTheta(mkpi.capacity)
      .SetSigma(std::make_shared<ConstSigma>(params.sigma));

  // Items -> events. User i likes only event i with mu = p*K/(1-p).
  for (size_t i = 0; i < n; ++i) {
    const double p = mkpi.profits[i];
    if (p <= 0.0 || p >= 1.0) {
      return util::Status::InvalidArgument(util::StrFormat(
          "item %zu: profit %f outside (0,1); normalize first", i, p));
    }
    const double mu = p * params.competing_interest / (1.0 - p);
    if (mu <= 0.0 || mu > 1.0) {
      return util::Status::InvalidArgument(util::StrFormat(
          "item %zu: derived interest %f outside (0,1]; lower "
          "competing_interest",
          i, mu));
    }
    builder.AddEvent(
        /*location=*/static_cast<LocationId>(i),  // distinct locations:
                                                  // no location conflicts
        /*required_resources=*/mkpi.weights[i],
        {{static_cast<UserIndex>(i), static_cast<float>(mu)}});
  }

  // One competing event per interval; all users share interest K.
  std::vector<std::pair<UserIndex, float>> everyone;
  everyone.reserve(n);
  for (size_t u = 0; u < n; ++u) {
    everyone.push_back({static_cast<UserIndex>(u),
                        static_cast<float>(params.competing_interest)});
  }
  for (int b = 0; b < mkpi.num_bins; ++b) {
    builder.AddCompetingEvent(static_cast<IntervalIndex>(b), everyone);
  }

  return builder.Build();
}

MkpiInstance NormalizeMkpiProfits(MkpiInstance mkpi, double slack) {
  SES_CHECK_GT(slack, 1.0);
  double max_profit = 0.0;
  for (double p : mkpi.profits) max_profit = std::max(max_profit, p);
  if (max_profit <= 0.0) return mkpi;
  const double scale = 1.0 / (max_profit * slack);
  for (double& p : mkpi.profits) p *= scale;
  return mkpi;
}

double ExpectedSesUtility(const ReductionParams& params,
                          double mkpi_profit) {
  return params.sigma * mkpi_profit;
}

}  // namespace ses::core
