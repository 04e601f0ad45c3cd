// PrivacyGuarantee: the formal claim a mechanism makes about its output.

#ifndef OSDP_MECH_GUARANTEE_H_
#define OSDP_MECH_GUARANTEE_H_

#include <string>

#include "src/common/status.h"

namespace osdp {

/// The privacy definition a guarantee refers to.
enum class PrivacyModel {
  kNone = 0,   ///< no formal guarantee (e.g. the All-NS baseline)
  kDP = 1,     ///< ε-differential privacy (Definition 2.2)
  kOSDP = 2,   ///< (P, ε)-one-sided differential privacy (Definition 3.3)
  kEOSDP = 3,  ///< (P, ε)-extended OSDP (Definition 10.2)
  kPDP = 4,    ///< personalized DP (Jorgensen et al.; the Suppress baseline)
};

/// \brief Name of a PrivacyModel ("DP", "OSDP", ...).
const char* PrivacyModelToString(PrivacyModel m);

/// \brief A (model, ε, policy) triple describing what a mechanism promises.
///
/// For kDP the policy name is empty (equivalently P_all, Lemma 3.1/3.2).
/// `exclusion_attack_phi` is the φ for which the mechanism satisfies
/// φ-freedom from exclusion attacks: ε for OSDP/DP mechanisms (Theorem 3.1),
/// τ for Suppress (Theorem 3.4), +inf for mechanisms with none.
struct PrivacyGuarantee {
  PrivacyModel model = PrivacyModel::kNone;
  double epsilon = 0.0;
  std::string policy_name;
  double exclusion_attack_phi = 0.0;

  /// E.g. "(P_age, 1.0)-OSDP [phi=1.0]".
  std::string ToString() const;
};

/// ε-DP (Definition 2.2) at ε, with φ = ε (Theorem 3.1).
PrivacyGuarantee DpGuarantee(double epsilon);

/// (P, ε)-OSDP (Definition 3.3) for the policy named `policy_name`, with
/// φ = ε (Theorem 3.1).
PrivacyGuarantee OsdpGuarantee(double epsilon, const std::string& policy_name);

/// \brief OK when ε is positive and finite, InvalidArgument otherwise. Every
/// mechanism checks its ε here first: NaN and +inf would otherwise reach the
/// noise samplers as a zero or NaN scale.
Status ValidateEpsilon(double epsilon);

}  // namespace osdp

#endif  // OSDP_MECH_GUARANTEE_H_
