#include "src/mech/osdp_rr.h"

#include <cmath>

#include "src/common/distributions.h"

namespace osdp {

double OsdpRRReleaseProbability(double epsilon) {
  return 1.0 - std::exp(-epsilon);
}

Result<std::vector<size_t>> OsdpRRSelect(const Table& table,
                                         const Policy& policy, double epsilon,
                                         Rng& rng) {
  OSDP_ASSIGN_OR_RETURN(TableView view,
                        OsdpRRReleaseView(table, policy, epsilon, rng));
  return view.ToIndices();
}

Result<Table> OsdpRRRelease(const Table& table, const Policy& policy,
                            double epsilon, Rng& rng) {
  OSDP_ASSIGN_OR_RETURN(TableView view,
                        OsdpRRReleaseView(table, policy, epsilon, rng));
  return view.Materialize();
}

Result<TableView> OsdpRRReleaseView(const Table& table, const Policy& policy,
                                    double epsilon, Rng& rng) {
  return OsdpRRReleaseView(table, policy.NonSensitiveRowMask(table), epsilon,
                           rng);
}

Result<TableView> OsdpRRReleaseView(const Table& table,
                                    const RowMask& non_sensitive,
                                    double epsilon, Rng& rng) {
  if (epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  if (non_sensitive.size() != table.num_rows()) {
    return Status::InvalidArgument("non-sensitive mask size != table rows");
  }
  // The one OsdpRR coin loop: one Bernoulli per non-sensitive row, in row
  // order.
  const double p = OsdpRRReleaseProbability(epsilon);
  RowMask released(table.num_rows());
  non_sensitive.ForEachSet([&](size_t row) {
    if (rng.NextBernoulli(p)) released.Set(row);
  });
  return table.SelectRowsView(std::move(released));
}

Result<Histogram> OsdpRRHistogram(const Histogram& xns, double epsilon,
                                  Rng& rng) {
  if (epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  OSDP_RETURN_IF_ERROR(xns.ValidateNonNegative());
  const double p = OsdpRRReleaseProbability(epsilon);
  Histogram out(xns.size());
  for (size_t i = 0; i < xns.size(); ++i) {
    const auto n = static_cast<int64_t>(xns[i]);
    out[i] = static_cast<double>(SampleBinomial(rng, n, p));
  }
  return out;
}

PrivacyGuarantee OsdpRRGuarantee(double epsilon,
                                 const std::string& policy_name) {
  PrivacyGuarantee g;
  g.model = PrivacyModel::kOSDP;
  g.epsilon = epsilon;
  g.policy_name = policy_name;
  g.exclusion_attack_phi = epsilon;
  return g;
}

double OsdpRRExpectedL1Error(double total_records,
                             double non_sensitive_records, double epsilon) {
  const double sensitive = total_records - non_sensitive_records;
  return sensitive + non_sensitive_records * std::exp(-epsilon);
}

}  // namespace osdp
