#include "src/mech/osdp_laplace.h"

#include <algorithm>

#include "src/mech/noise.h"

namespace osdp {

Result<Histogram> OsdpLaplace(const Histogram& xns, double epsilon, Rng& rng) {
  OSDP_RETURN_IF_ERROR(ValidateEpsilon(epsilon));
  OSDP_RETURN_IF_ERROR(xns.ValidateNonNegative());
  Histogram out = xns;
  AddOneSided(out.counts(), 1, epsilon, rng);
  return out;
}

Result<Histogram> OsdpLaplaceL1(const Histogram& xns, double epsilon,
                                Rng& rng) {
  OSDP_ASSIGN_OR_RETURN(Histogram noisy, OsdpLaplace(xns, epsilon, rng));
  // Step 2: negative counts (including every true-zero bin, whose noisy value
  // is strictly negative almost surely) clamp to zero.
  noisy.ClampNonNegative();
  // Step 4: positive counts get the median added back so they are unbiased
  // in the median sense. µ is negative, so this subtracts |µ|... the paper
  // writes "-= µ" with µ = -ln(2)/ε, i.e. adds ln(2)/ε.
  const double mu = OneSidedMedian(1, epsilon);
  for (size_t i = 0; i < noisy.size(); ++i) {
    if (noisy[i] > 0.0) noisy[i] -= mu;
  }
  return noisy;
}

Result<Histogram> OsdpLaplaceL1Hybrid(const Histogram& x, const Histogram& xns,
                                      const std::vector<bool>& bin_is_sensitive,
                                      double epsilon, Rng& rng) {
  if (x.size() != xns.size() || x.size() != bin_is_sensitive.size()) {
    return Status::InvalidArgument(
        "x, xns, and bin_is_sensitive must have equal size");
  }
  OSDP_RETURN_IF_ERROR(ValidateEpsilon(epsilon));
  OSDP_RETURN_IF_ERROR(x.ValidateNonNegative());
  OSDP_RETURN_IF_ERROR(xns.ValidateNonNegative());
  if (!xns.DominatedBy(x)) {
    return Status::InvalidArgument("xns must be dominated by x per bin");
  }

  // Sensitive bins: a histogram's sensitivity 2 (bounded). Non-sensitive
  // bins: x_ns's one-sided sensitivity 1.
  const double mu = OneSidedMedian(1, epsilon);
  Histogram out(x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    if (bin_is_sensitive[i]) {
      out[i] = std::max(0.0, x[i] + DrawLaplace(2, epsilon, rng));
    } else {
      double v = xns[i] + DrawOneSided(1, epsilon, rng);
      v = std::max(v, 0.0);
      if (v > 0.0) v -= mu;
      out[i] = v;
    }
  }
  return out;
}

}  // namespace osdp
