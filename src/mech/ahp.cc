#include "src/mech/ahp.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/mech/guarantee.h"
#include "src/mech/noise.h"

namespace osdp {

// Fraction of ε spent on phase-1 structure learning.
constexpr double kStructureBudgetRatio = 0.5;

Result<TwoPhaseMechanism::Output> Ahp(const Histogram& x, double epsilon,
                                      Rng& rng) {
  OSDP_RETURN_IF_ERROR(ValidateEpsilon(epsilon));
  const size_t d = x.size();
  if (d == 0) return Status::InvalidArgument("empty histogram");
  const double eps1 = kStructureBudgetRatio * epsilon;
  const double eps2 = epsilon - eps1;

  // ---- Phase 1: noisy copy, threshold, value-sorted clustering. ----
  // Histogram sensitivity 2 (bounded).
  const double scale1 = 2.0 / eps1;
  std::vector<double> noisy = x.counts();
  AddLaplace(noisy, 2, eps1, rng);
  const double threshold =
      scale1 * std::sqrt(2.0 * std::log(std::max<double>(2.0, d)));
  for (double& v : noisy) {
    if (v < threshold) v = 0.0;
  }

  std::vector<uint32_t> order(d);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return noisy[a] < noisy[b];
  });

  const double spread_cap = 2.0 * (2.0 / eps2);
  BinGroups groups;
  size_t i = 0;
  while (i < d) {
    std::vector<uint32_t> group = {order[i]};
    const double base = noisy[order[i]];
    size_t j = i + 1;
    while (j < d && noisy[order[j]] - base <= spread_cap) {
      group.push_back(order[j]);
      ++j;
    }
    groups.push_back(std::move(group));
    i = j;
  }

  // ---- Phase 2: noisy cluster totals, uniform within cluster. ----
  std::vector<double> totals(groups.size(), 0.0);
  for (size_t k = 0; k < groups.size(); ++k) {
    for (uint32_t bin : groups[k]) totals[k] += x[bin];
  }
  AddLaplace(totals, 2, eps2, rng);
  Histogram estimate(d);
  for (size_t k = 0; k < groups.size(); ++k) {
    const double per_bin =
        std::max(totals[k], 0.0) / static_cast<double>(groups[k].size());
    for (uint32_t bin : groups[k]) estimate[bin] = per_bin;
  }
  return TwoPhaseMechanism::Output{std::move(estimate), std::move(groups)};
}

namespace {

class AhpTwoPhase final : public TwoPhaseMechanism {
 public:
  const std::string& name() const override {
    static const std::string kName = "AHP";
    return kName;
  }
  Result<Output> Run(const Histogram& x, double epsilon,
                     Rng& rng) const override {
    return Ahp(x, epsilon, rng);
  }
};

}  // namespace

std::unique_ptr<TwoPhaseMechanism> MakeAhpTwoPhase() {
  return std::make_unique<AhpTwoPhase>();
}

}  // namespace osdp
