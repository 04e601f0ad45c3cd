#include "src/eval/metrics.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "src/common/check.h"
#include "src/common/stats.h"

namespace osdp {

namespace {

// The δ floor in |x_i - x̃_i| / max(x_i, δ) (paper: δ = 1).
constexpr double kRelativeErrorFloor = 1.0;

// The per-bin relative error vector [ |x_i - x̃_i| / max(x_i, δ) ].
std::vector<double> BinRelativeErrors(const Histogram& truth,
                                      const Histogram& estimate) {
  OSDP_CHECK(truth.size() == estimate.size());
  std::vector<double> rel(truth.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    rel[i] = std::abs(truth[i] - estimate[i]) /
             std::max(truth[i], kRelativeErrorFloor);
  }
  return rel;
}

}  // namespace

double MeanRelativeError(const Histogram& truth, const Histogram& estimate) {
  return Mean(BinRelativeErrors(truth, estimate));
}

double RelativeErrorPercentile(const Histogram& truth,
                               const Histogram& estimate, double percentile) {
  return Percentile(BinRelativeErrors(truth, estimate), percentile);
}

double L1Error(const Histogram& truth, const Histogram& estimate) {
  OSDP_CHECK(truth.size() == estimate.size());
  double sum = 0.0;
  for (size_t i = 0; i < truth.size(); ++i) {
    sum += std::abs(truth[i] - estimate[i]);
  }
  return sum;
}

double SparseMeanRelativeError(const SparseHistogram& truth,
                               const SparseHistogram& estimate,
                               double implicit_zero_error) {
  OSDP_CHECK(truth.domain_size() > 0.0);
  double sum = 0.0;
  size_t touched = 0;
  // Cells with true mass (materialized in truth).
  for (const auto& [cell, t] : truth.cells()) {
    const double e = estimate.Get(cell);
    sum += std::abs(t - e) / std::max(t, kRelativeErrorFloor);
    ++touched;
  }
  // Cells the estimate invented (true count zero).
  for (const auto& [cell, e] : estimate.cells()) {
    if (truth.Get(cell) != 0.0) continue;  // already counted above
    sum += std::abs(e) / kRelativeErrorFloor;
    ++touched;
  }
  // Every untouched cell of the conceptual domain contributes analytically.
  const double untouched = truth.domain_size() - static_cast<double>(touched);
  OSDP_CHECK(untouched >= 0.0);
  sum += untouched * implicit_zero_error / kRelativeErrorFloor;
  return sum / truth.domain_size();
}

double SparseSupportMeanRelativeError(const SparseHistogram& truth,
                                      const SparseHistogram& estimate) {
  if (truth.cells().empty()) return 0.0;
  double sum = 0.0;
  for (const auto& [cell, t] : truth.cells()) {
    sum += std::abs(t - estimate.Get(cell)) /
           std::max(t, kRelativeErrorFloor);
  }
  return sum / static_cast<double>(truth.cells().size());
}

}  // namespace osdp
