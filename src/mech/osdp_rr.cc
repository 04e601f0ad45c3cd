#include "src/mech/osdp_rr.h"

#include <cmath>
#include <utility>

#include "src/common/distributions.h"

namespace osdp {

double OsdpRRReleaseProbability(double epsilon) {
  return 1.0 - std::exp(-epsilon);
}

Result<RowMask> OsdpRRDraw(const RowMask& eligible, double epsilon,
                           Rng& rng) {
  OSDP_RETURN_IF_ERROR(ValidateEpsilon(epsilon));
  const double p = OsdpRRReleaseProbability(epsilon);
  RowMask released(eligible.size());
  eligible.ForEachSet([&](size_t row) {
    if (rng.NextBernoulli(p)) released.Set(row);
  });
  return released;
}

Result<TableView> OsdpRRReleaseView(const Table& table,
                                    const RowMask& non_sensitive,
                                    double epsilon, Rng& rng) {
  if (non_sensitive.size() != table.num_rows()) {
    return Status::InvalidArgument("non-sensitive mask size != table rows");
  }
  OSDP_ASSIGN_OR_RETURN(RowMask released,
                        OsdpRRDraw(non_sensitive, epsilon, rng));
  return table.SelectRowsView(std::move(released));
}

Result<Histogram> OsdpRRHistogram(const Histogram& xns, double epsilon,
                                  Rng& rng) {
  OSDP_RETURN_IF_ERROR(ValidateEpsilon(epsilon));
  OSDP_RETURN_IF_ERROR(xns.ValidateNonNegative());
  const double p = OsdpRRReleaseProbability(epsilon);
  Histogram out(xns.size());
  for (size_t i = 0; i < xns.size(); ++i) {
    const auto n = static_cast<int64_t>(xns[i]);
    out[i] = static_cast<double>(SampleBinomial(rng, n, p));
  }
  return out;
}

double OsdpRRExpectedL1Error(double total_records,
                             double non_sensitive_records, double epsilon) {
  const double sensitive = total_records - non_sensitive_records;
  return sensitive + non_sensitive_records * std::exp(-epsilon);
}

}  // namespace osdp
