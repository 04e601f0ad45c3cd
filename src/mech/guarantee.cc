#include "src/mech/guarantee.h"

#include <cmath>
#include <sstream>
#include <string>

namespace osdp {

const char* PrivacyModelToString(PrivacyModel m) {
  switch (m) {
    case PrivacyModel::kNone:
      return "None";
    case PrivacyModel::kDP:
      return "DP";
    case PrivacyModel::kOSDP:
      return "OSDP";
    case PrivacyModel::kEOSDP:
      return "eOSDP";
    case PrivacyModel::kPDP:
      return "PDP";
  }
  return "?";
}

std::string PrivacyGuarantee::ToString() const {
  std::ostringstream out;
  if (model == PrivacyModel::kNone) return "no guarantee";
  out << "(";
  if (!policy_name.empty()) out << policy_name << ", ";
  out << epsilon << ")-" << PrivacyModelToString(model);
  if (std::isfinite(exclusion_attack_phi)) {
    out << " [phi=" << exclusion_attack_phi << "]";
  } else {
    out << " [no exclusion-attack freedom]";
  }
  return out.str();
}

PrivacyGuarantee DpGuarantee(double epsilon) {
  PrivacyGuarantee g;
  g.model = PrivacyModel::kDP;
  g.epsilon = epsilon;
  g.exclusion_attack_phi = epsilon;
  return g;
}

PrivacyGuarantee OsdpGuarantee(double epsilon, const std::string& policy_name) {
  PrivacyGuarantee g = DpGuarantee(epsilon);
  g.model = PrivacyModel::kOSDP;
  g.policy_name = policy_name;
  return g;
}

Status ValidateEpsilon(double epsilon) {
  if (!std::isfinite(epsilon) || epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive and finite");
  }
  return Status::OK();
}

}  // namespace osdp
