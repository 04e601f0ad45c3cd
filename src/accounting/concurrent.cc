#include "src/accounting/concurrent.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace osdp {

namespace {

// Absolute slack for floating-point accumulation of ε charges.
constexpr double kEpsTolerance = 1e-9;

// The minimum relaxation of the distinct recorded policies paired with the
// composed ε; FailedPrecondition for an empty ledger.
Result<ComposedGuarantee> Compose(const std::vector<Policy>& policies,
                                  double epsilon) {
  if (policies.empty()) {
    return Status::FailedPrecondition("empty ledger has no composed guarantee");
  }
  return ComposedGuarantee{Policy::MinimumRelaxation(policies), epsilon};
}

}  // namespace

SharedBudget::SharedBudget(double total_epsilon) : total_(total_epsilon) {
  OSDP_CHECK_MSG(total_epsilon > 0.0, "budget must be positive");
}

Status SharedBudget::Spend(double epsilon, const std::string& label) {
  // A NaN charge would pass every comparison below and poison spent_, after
  // which no charge is ever refused; an infinite one can never be repaid.
  if (!std::isfinite(epsilon) || epsilon <= 0.0) {
    return Status::InvalidArgument(
        "epsilon charge must be positive and finite");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (spent_ + epsilon > total_ + kEpsTolerance) {
    return Status::BudgetExhausted(
        "charge " + std::to_string(epsilon) + " for '" + label +
        "' exceeds remaining budget " + std::to_string(total_ - spent_));
  }
  spent_ += epsilon;
  return Status::OK();
}

void SharedBudget::Refund(double epsilon) {
  std::lock_guard<std::mutex> lock(mu_);
  OSDP_CHECK_MSG(epsilon > 0.0, "refund must be positive");
  OSDP_CHECK_MSG(epsilon <= spent_ + kEpsTolerance,
                 "refund " << epsilon << " exceeds spent " << spent_);
  spent_ -= epsilon;
}

void SharedLedger::Record(const Policy& policy, double epsilon,
                          std::string label, uint64_t generation) {
  std::lock_guard<std::mutex> lock(mu_);
  // The running Σ and max start from the first ε itself, so they equal a
  // left fold over the entries in record order, bit for bit.
  if (entries_.empty()) {
    sum_epsilon_ = epsilon;
    max_epsilon_ = epsilon;
  } else {
    sum_epsilon_ += epsilon;
    max_epsilon_ = std::max(max_epsilon_, epsilon);
  }
  entries_.push_back({epsilon, std::move(label), generation});
  const bool known = std::any_of(
      policies_.begin(), policies_.end(), [&policy](const Policy& p) {
        return p.sensitive_predicate().root() ==
                   policy.sensitive_predicate().root() &&
               p.name() == policy.name();
      });
  if (!known) policies_.push_back(policy);
}

Result<ComposedGuarantee> SharedLedger::Sequential() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Compose(policies_, sum_epsilon_);
}

Result<ComposedGuarantee> SharedLedger::Parallel() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Compose(policies_, max_epsilon_);
}

}  // namespace osdp
