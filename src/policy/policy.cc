#include "src/policy/policy.h"

#include "src/common/check.h"
#include "src/data/compiled_predicate.h"

namespace osdp {

Policy Policy::SensitiveWhen(Predicate pred, std::string name) {
  if (name.empty()) name = "sensitive_when(" + pred.ToString() + ")";
  return Policy(std::move(pred), std::move(name));
}

Policy Policy::AllSensitive() { return Policy(Predicate::True(), "P_all"); }

Policy Policy::AllNonSensitive() {
  return Policy(Predicate::False(), "P_none");
}

RowMask Policy::SensitiveMask(const Table& table) const {
  Result<CompiledPredicate> compiled =
      CompiledPredicate::Compile(sensitive_, table.schema());
  OSDP_CHECK_MSG(compiled.ok(), "policy '" << name_
                                           << "' does not type-check: "
                                           << compiled.status().ToString());
  return compiled->EvalMask(table);
}

RowMask Policy::NonSensitiveRowMask(const Table& table) const {
  RowMask mask = SensitiveMask(table);
  mask.FlipAll();
  return mask;
}

double Policy::NonSensitiveFraction(const Table& table) const {
  if (table.num_rows() == 0) return 0.0;
  const size_t ns = table.num_rows() - SensitiveMask(table).Count();
  return static_cast<double>(ns) / static_cast<double>(table.num_rows());
}

Policy Policy::MinimumRelaxation(const Policy& a, const Policy& b) {
  // P_mr(r) = max(P_a(r), P_b(r)): non-sensitive when either says so, i.e.
  // sensitive only when both say sensitive. Same-named policies compose to
  // themselves in spirit, so keep the name readable.
  const std::string name =
      a.name_ == b.name_ ? a.name_ : "mr(" + a.name_ + ", " + b.name_ + ")";
  return Policy(Predicate::And(a.sensitive_, b.sensitive_), name);
}

Policy Policy::MinimumRelaxation(const std::vector<Policy>& policies) {
  OSDP_CHECK(!policies.empty());
  Policy acc = policies[0];
  for (size_t i = 1; i < policies.size(); ++i) {
    acc = MinimumRelaxation(acc, policies[i]);
  }
  return acc;
}

bool Policy::IsRelaxationOfOn(const Policy& stricter, const Table& table) const {
  // `this` ⪯ stricter ⟺ for all rows: this.P(r) >= stricter.P(r)
  // ⟺ every row sensitive under `this` is sensitive under `stricter`.
  return SensitiveMask(table).IsSubsetOf(stricter.SensitiveMask(table));
}

}  // namespace osdp
