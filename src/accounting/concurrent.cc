#include "src/accounting/concurrent.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace osdp {

namespace {

// Absolute slack for floating-point accumulation of ε charges.
constexpr double kEpsTolerance = 1e-9;

// Folds the entries into one guarantee: policies by minimum relaxation, ε's
// by `combine` (+ for sequential, max for parallel composition).
template <typename Combine>
Result<ComposedGuarantee> Compose(
    const std::vector<SharedLedger::Entry>& entries, Combine combine) {
  if (entries.empty()) {
    return Status::FailedPrecondition("empty ledger has no composed guarantee");
  }
  Policy mr = entries[0].policy;
  double eps = entries[0].epsilon;
  for (size_t i = 1; i < entries.size(); ++i) {
    mr = Policy::MinimumRelaxation(mr, entries[i].policy);
    eps = combine(eps, entries[i].epsilon);
  }
  return ComposedGuarantee{std::move(mr), eps};
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
  charges_.push_back({epsilon, label});
  return Status::OK();
}

void SharedBudget::Refund(double epsilon, const std::string& label) {
  std::lock_guard<std::mutex> lock(mu_);
  OSDP_CHECK_MSG(epsilon > 0.0, "refund must be positive");
  OSDP_CHECK_MSG(epsilon <= spent_ + kEpsTolerance,
                 "refund " << epsilon << " exceeds spent " << spent_);
  spent_ -= epsilon;
  charges_.push_back({-epsilon, label});
}

Result<ComposedGuarantee> SharedLedger::Sequential() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Compose(entries_, [](double a, double b) { return a + b; });
}

Result<ComposedGuarantee> SharedLedger::Parallel() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Compose(entries_, [](double a, double b) { return std::max(a, b); });
}

}  // namespace osdp
