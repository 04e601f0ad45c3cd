#include "src/accounting/budget.h"

#include <cmath>

#include "src/common/check.h"

namespace osdp {

namespace {
// Absolute slack for floating-point accumulation of ε charges.
constexpr double kEpsTolerance = 1e-9;
}  // namespace

PrivacyBudget::PrivacyBudget(double total_epsilon) : total_(total_epsilon) {
  OSDP_CHECK_MSG(total_epsilon > 0.0, "budget must be positive");
}

Status PrivacyBudget::Spend(double epsilon, const std::string& label) {
  // A NaN charge would pass every comparison below and poison spent_, after
  // which no charge is ever refused; an infinite one can never be repaid.
  if (!std::isfinite(epsilon) || epsilon <= 0.0) {
    return Status::InvalidArgument(
        "epsilon charge must be positive and finite");
  }
  if (spent_ + epsilon > total_ + kEpsTolerance) {
    return Status::BudgetExhausted(
        "charge " + std::to_string(epsilon) + " for '" + label +
        "' exceeds remaining budget " + std::to_string(remaining()));
  }
  spent_ += epsilon;
  charges_.push_back({epsilon, label});
  return Status::OK();
}

void PrivacyBudget::Refund(double epsilon, const std::string& label) {
  OSDP_CHECK_MSG(epsilon > 0.0, "refund must be positive");
  OSDP_CHECK_MSG(epsilon <= spent_ + kEpsTolerance,
                 "refund " << epsilon << " exceeds spent " << spent_);
  spent_ -= epsilon;
  charges_.push_back({-epsilon, label});
}

Status PrivacyBudget::SpendFraction(double fraction, const std::string& label,
                                    double* charged) {
  if (fraction <= 0.0 || fraction > 1.0) {
    return Status::InvalidArgument("fraction must be in (0, 1]");
  }
  const double eps = remaining() * fraction;
  if (eps <= 0.0) {
    return Status::BudgetExhausted("no remaining budget for '" + label + "'");
  }
  OSDP_RETURN_IF_ERROR(Spend(eps, label));
  if (charged != nullptr) *charged = eps;
  return Status::OK();
}

}  // namespace osdp
