#include "src/benchdata/sampling.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/check.h"
#include "src/common/distributions.h"

namespace osdp {

namespace {

// Clamps v into [0, cap].
double ClampCount(double v, double cap) { return std::min(std::max(v, 0.0), cap); }

// Fixes the total of `sample` to exactly `m` by adding/removing single units
// in bins with spare capacity/mass, scanning from a random offset so the
// correction does not systematically favour low bins.
void CorrectTotal(const Histogram& x, int64_t m, Rng& rng, Histogram* sample) {
  auto total = static_cast<int64_t>(std::llround(sample->Total()));
  const size_t d = x.size();
  const size_t start = rng.NextBounded(d);
  // Bulk-correct scanning from a random offset: the leftover after the
  // binomial draws is tiny relative to the sample, so the bias toward the
  // first scanned bins is negligible.
  for (size_t k = 0; k < d && total != m; ++k) {
    const size_t i = (start + k) % d;
    if (total < m) {
      const auto spare = static_cast<int64_t>(std::llround(x[i] - (*sample)[i]));
      const int64_t add = std::min(spare, m - total);
      if (add > 0) {
        (*sample)[i] += static_cast<double>(add);
        total += add;
      }
    } else {
      const auto have = static_cast<int64_t>(std::llround((*sample)[i]));
      const int64_t remove = std::min(have, total - m);
      if (remove > 0) {
        (*sample)[i] -= static_cast<double>(remove);
        total -= remove;
      }
    }
  }
  OSDP_CHECK_MSG(total == m, "could not correct sample total");
}

}  // namespace

double DomainValueMean(const Histogram& x) {
  const double total = x.Total();
  if (total <= 0.0) return 0.0;
  double acc = 0.0;
  for (size_t i = 0; i < x.size(); ++i) acc += static_cast<double>(i) * x[i];
  return acc / total;
}

double DomainValueStddev(const Histogram& x) {
  const double total = x.Total();
  if (total <= 0.0) return 0.0;
  const double mu = DomainValueMean(x);
  double acc = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    const double dlt = static_cast<double>(i) - mu;
    acc += dlt * dlt * x[i];
  }
  return std::sqrt(acc / total);
}

Result<Histogram> SampleWithoutReplacement(const Histogram& x, int64_t m,
                                           Rng& rng) {
  OSDP_RETURN_IF_ERROR(x.ValidateNonNegative());
  const auto total = static_cast<int64_t>(std::llround(x.Total()));
  if (m < 0 || m > total) {
    return Status::InvalidArgument("sample size outside [0, total]");
  }
  Histogram sample(x.size());
  if (m == 0) return sample;
  // Sequential conditional draws: bin i receives ~Binomial(x_i, need/left).
  int64_t need = m;
  int64_t left = total;
  for (size_t i = 0; i < x.size() && need > 0; ++i) {
    const auto cap = static_cast<int64_t>(std::llround(x[i]));
    if (cap == 0) {
      continue;
    }
    const double p = static_cast<double>(need) / static_cast<double>(left);
    const int64_t take =
        std::min<int64_t>(cap, std::min<int64_t>(need, SampleBinomial(rng, cap, p)));
    sample[i] = static_cast<double>(take);
    need -= take;
    left -= cap;
  }
  CorrectTotal(x, m, rng, &sample);
  return sample;
}

Result<Histogram> MSampling(const Histogram& x, double rho, Rng& rng) {
  constexpr double kTheta = 0.1;     // allowed relative shape deviation
  constexpr int kMaxAttempts = 50;   // draws before keeping the closest
  if (!(rho > 0.0 && rho <= 1.0)) {
    return Status::InvalidArgument("rho must be in (0, 1]");
  }
  const auto m = static_cast<int64_t>(std::llround(rho * x.Total()));
  const double mu = DomainValueMean(x);
  const double sigma = DomainValueStddev(x);

  Histogram best(x.size());
  double best_err = std::numeric_limits<double>::infinity();
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    OSDP_ASSIGN_OR_RETURN(Histogram cand, SampleWithoutReplacement(x, m, rng));
    const double mu_err = mu > 0 ? std::abs(DomainValueMean(cand) - mu) / mu : 0;
    const double sd_err =
        sigma > 0 ? std::abs(DomainValueStddev(cand) - sigma) / sigma : 0;
    const double err = std::max(mu_err, sd_err);
    if (err < best_err) {
      best_err = err;
      best = cand;
    }
    if (err <= kTheta) break;
  }
  return best;
}

Result<Histogram> HiLoSampling(const Histogram& x, double rho, Rng& rng) {
  constexpr double kGamma = 5.0;  // weight of the High region (paper: 5)
  constexpr double kBeta = 0.4;   // High half-width over d (paper: 0.4)
  if (!(rho > 0.0 && rho <= 1.0)) {
    return Status::InvalidArgument("rho must be in (0, 1]");
  }
  OSDP_RETURN_IF_ERROR(x.ValidateNonNegative());
  const size_t d = x.size();
  const auto m = static_cast<int64_t>(std::llround(rho * x.Total()));

  // High region: b ± β·d, clamped to the domain.
  const auto b = static_cast<int64_t>(rng.NextBounded(d));
  const auto half = static_cast<int64_t>(kBeta * static_cast<double>(d));
  const int64_t lo = std::max<int64_t>(0, b - half);
  const int64_t hi = std::min<int64_t>(static_cast<int64_t>(d) - 1, b + half);

  // Weighted allocation without replacement, in expectation: iteratively give
  // each bin its weight-proportional share of the remaining draw budget,
  // clamped at capacity; repeat until the budget is exhausted (clamping can
  // leave leftovers). This is the expectation of the paper's record-level
  // weighted sampler and runs in O(d) per round even at 10⁷-record scales.
  std::vector<double> weight(d);
  for (size_t i = 0; i < d; ++i) {
    const bool high = static_cast<int64_t>(i) >= lo && static_cast<int64_t>(i) <= hi;
    weight[i] = high ? kGamma : 1.0;
  }
  Histogram alloc(d);
  double need = static_cast<double>(m);
  for (int round = 0; round < 64 && need > 0.5; ++round) {
    double wmass = 0.0;
    for (size_t i = 0; i < d; ++i) {
      wmass += weight[i] * (x[i] - alloc[i]);
    }
    if (wmass <= 0.0) break;
    bool progressed = false;
    for (size_t i = 0; i < d; ++i) {
      const double spare = x[i] - alloc[i];
      if (spare <= 0.0) continue;
      const double give =
          ClampCount(need * weight[i] * spare / wmass, spare);
      if (give > 0.0) progressed = true;
      alloc[i] += give;
    }
    need = static_cast<double>(m) - alloc.Total();
    if (!progressed) break;
  }
  // Integerize and correct the total exactly.
  for (size_t i = 0; i < d; ++i) alloc[i] = std::floor(alloc[i]);
  CorrectTotal(x, m, rng, &alloc);
  return alloc;
}

}  // namespace osdp
