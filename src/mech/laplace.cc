#include "src/mech/laplace.h"

#include "src/common/distributions.h"

namespace osdp {

Result<Histogram> LaplaceMechanism(const Histogram& x, double epsilon,
                                   const LaplaceOptions& opts, Rng& rng) {
  OSDP_RETURN_IF_ERROR(ValidateEpsilon(epsilon));
  if (opts.sensitivity <= 0.0) {
    return Status::InvalidArgument("sensitivity must be positive");
  }
  const double scale = opts.sensitivity / epsilon;
  Histogram out(x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    out[i] = x[i] + SampleLaplace(rng, scale);
  }
  return out;
}

Result<Histogram> LaplaceMechanism(const Histogram& x, double epsilon,
                                   Rng& rng) {
  return LaplaceMechanism(x, epsilon, LaplaceOptions{}, rng);
}

double LaplaceExpectedL1Error(size_t bins, double epsilon, double sensitivity) {
  return static_cast<double>(bins) * sensitivity / epsilon;
}

}  // namespace osdp
