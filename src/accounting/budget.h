// PrivacyBudget: ε as a spendable resource (Section 2, sequential composition).

#ifndef OSDP_ACCOUNTING_BUDGET_H_
#define OSDP_ACCOUNTING_BUDGET_H_

#include <string>
#include <vector>

#include "src/common/status.h"

namespace osdp {

/// \brief Tracks a total ε budget and the analyses charged against it.
///
/// Sequential composition (Theorem 2.1 / 3.3) makes spent ε additive, so the
/// budget refuses any charge that would push the running total past ε_total.
class PrivacyBudget {
 public:
  /// Creates a budget with the given total ε (> 0).
  explicit PrivacyBudget(double total_epsilon);

  /// Total ε the budget was created with.
  double total() const { return total_; }
  /// ε charged so far.
  double spent() const { return spent_; }
  /// ε still available.
  double remaining() const { return total_ - spent_; }

  /// Charges `epsilon` (must be positive and finite; InvalidArgument
  /// otherwise) under `label`; BudgetExhausted if the charge exceeds the
  /// remaining budget (beyond a tiny float tolerance).
  Status Spend(double epsilon, const std::string& label);

  /// Splits off a fraction of the *remaining* budget and charges it,
  /// returning the charged ε. fraction must be in (0, 1].
  Status SpendFraction(double fraction, const std::string& label,
                       double* charged);

  /// \brief Reverses a prior charge of `epsilon` — the rollback half of the
  /// two-phase commit used by concurrent front-ends (QueryService) that must
  /// reserve budget before a release and return it if the release fails
  /// downstream. The ledger stays append-only: a refund is recorded as a
  /// negative line rather than by erasing the charge, so the audit trail
  /// shows both sides. Aborts if the refund exceeds what was spent.
  void Refund(double epsilon, const std::string& label);

  /// One ledger line per successful Spend.
  struct Charge {
    double epsilon;
    std::string label;
  };
  const std::vector<Charge>& charges() const { return charges_; }

 private:
  double total_;
  double spent_ = 0.0;
  std::vector<Charge> charges_;
};

}  // namespace osdp

#endif  // OSDP_ACCOUNTING_BUDGET_H_
