// Policy functions (Definition 3.1): P : T -> {0,1}, where P(r)=0 marks the
// record sensitive and P(r)=1 non-sensitive, plus the relaxation algebra of
// Section 3.3 (policy relaxation, minimum relaxation).

#ifndef OSDP_POLICY_POLICY_H_
#define OSDP_POLICY_POLICY_H_

#include <string>
#include <utility>
#include <vector>

#include "src/data/predicate.h"
#include "src/data/row_mask.h"
#include "src/data/table.h"

namespace osdp {

/// \brief A policy over table records, backed by a sensitivity predicate.
///
/// The predicate answers "is this record sensitive?" — i.e. it is the
/// complement of the paper's P (which returns 1 for non-sensitive records).
/// Keeping the sensitive side primary makes the minimum-relaxation algebra
/// (AND of sensitive predicates) read directly off Definition 3.6.
///
/// A Policy is a plain (predicate, name) value: copies are independent and
/// every method is const and thread-safe. Records are classified a whole
/// table at a time — each whole-table method below compiles the predicate
/// against the table's schema (CompiledPredicate) and scans once. Callers
/// that classify the same rows repeatedly keep the mask instead (a
/// Snapshot's `non_sensitive`); TableBuilder classifies each ingested row
/// exactly once.
class Policy {
 public:
  /// Policy whose sensitive records are exactly those matching `pred`.
  static Policy SensitiveWhen(Predicate pred, std::string name = "");

  /// The all-sensitive policy P_all (Definition 3.7); OSDP under it is DP.
  static Policy AllSensitive();

  /// The trivial policy with no sensitive records (any algorithm qualifies).
  static Policy AllNonSensitive();

  /// mask bit set iff the row is sensitive (the paper's P(r) = 0), from one
  /// compiled column-at-a-time scan. Aborts if the predicate does not
  /// type-check against the table's schema: classifying with the wrong
  /// schema is a programming error. Untrusted policy text is checked first
  /// with CompiledPredicate::Compile, which returns the Status instead.
  RowMask SensitiveMask(const Table& table) const;

  /// mask bit set iff the row is non-sensitive (the release-eligible subset).
  RowMask NonSensitiveRowMask(const Table& table) const;

  /// Fraction of non-sensitive rows (the paper's ρ); 0 for empty tables.
  double NonSensitiveFraction(const Table& table) const;

  /// \brief Minimum relaxation P_mr of two policies (Definition 3.6):
  /// sensitive iff sensitive under *both*. The strictest common relaxation.
  static Policy MinimumRelaxation(const Policy& a, const Policy& b);

  /// Minimum relaxation of a non-empty set of policies.
  static Policy MinimumRelaxation(const std::vector<Policy>& policies);

  /// \brief Empirical relaxation check on a concrete table: true iff
  /// `this` is a relaxation of `stricter` on every row (Definition 3.5:
  /// P1 ⪯ P2 iff P1(r) >= P2(r) for all r — every record sensitive under
  /// P1 is sensitive under P2). Policies are black-box predicates, so the
  /// relation is certified per-dataset rather than symbolically.
  bool IsRelaxationOfOn(const Policy& stricter, const Table& table) const;

  /// Diagnostic name ("P_all", user-supplied, or derived from the predicate).
  const std::string& name() const { return name_; }

  /// The sensitivity predicate (true = sensitive).
  const Predicate& sensitive_predicate() const { return sensitive_; }

 private:
  Policy(Predicate sensitive, std::string name)
      : sensitive_(std::move(sensitive)), name_(std::move(name)) {}

  Predicate sensitive_;
  std::string name_;
};

}  // namespace osdp

#endif  // OSDP_POLICY_POLICY_H_
