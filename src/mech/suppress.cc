#include "src/mech/suppress.h"

#include <cmath>

#include "src/mech/laplace.h"

namespace osdp {

Result<Histogram> Suppress(const Histogram& xns, const SuppressOptions& opts,
                           Rng& rng) {
  if (!(opts.tau > 0.0)) {
    return Status::InvalidArgument("tau must be positive");
  }
  OSDP_RETURN_IF_ERROR(xns.ValidateNonNegative());
  if (std::isinf(opts.tau)) {
    return xns;  // τ = ∞: release the non-sensitive records exactly
  }
  return LaplaceMechanism(xns, opts.tau, rng);
}

PrivacyGuarantee SuppressGuarantee(double tau, const std::string& policy_name) {
  PrivacyGuarantee g;
  g.model = PrivacyModel::kPDP;
  g.epsilon = tau;
  g.policy_name = policy_name;
  g.exclusion_attack_phi = tau;  // Theorem 3.4
  return g;
}

}  // namespace osdp
