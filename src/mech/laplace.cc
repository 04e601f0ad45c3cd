#include "src/mech/laplace.h"

#include "src/mech/noise.h"

namespace osdp {

Result<Histogram> LaplaceMechanism(const Histogram& x, double epsilon,
                                   Rng& rng) {
  OSDP_RETURN_IF_ERROR(ValidateEpsilon(epsilon));
  Histogram out = x;
  AddLaplace(out.counts(), 2, epsilon, rng);
  return out;
}

double LaplaceExpectedL1Error(size_t bins, double epsilon) {
  return static_cast<double>(bins) * 2.0 / epsilon;
}

}  // namespace osdp
