#include "src/common/distributions.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/check.h"

namespace osdp {

double SampleLaplace(Rng& rng, double b) {
  OSDP_CHECK(b > 0.0);
  // Inverse CDF: u uniform in (-1/2, 1/2]; x = -b * sgn(u) * ln(1 - 2|u|).
  // NextDoublePositive() returns exactly 1.0 with probability 2⁻⁵³, which
  // would drive the ln argument to 0 and the sample to +∞ — reachable at the
  // billions-of-draws bench scale. Treat that topmost lattice cell as its
  // width-2⁻⁵³ half-open neighbourhood instead: the magnitude is then capped
  // at 53·ln2·b ≈ 36.7b, so every Rng output yields a finite sample.
  const double u = rng.NextDoublePositive() - 0.5;
  const double inner = std::max(1.0 - 2.0 * std::abs(u), 0x1.0p-53);
  const double mag = -b * std::log(inner);
  return u >= 0 ? mag : -mag;
}

double SampleExponential(Rng& rng, double b) {
  OSDP_CHECK(b > 0.0);
  // u ∈ (0,1] keeps the log finite: |x| <= 53·ln2·b. The u = 1.0 boundary
  // yields -b·log(1) = -0.0; adding +0.0 normalizes the sign so callers
  // never observe a negative-zero "exponential" draw.
  return -b * std::log(rng.NextDoublePositive()) + 0.0;
}

double SampleOneSidedLaplace(Rng& rng, double b) {
  return -SampleExponential(rng, b);
}

double SampleGaussian(Rng& rng, double mean, double stddev) {
  OSDP_CHECK(stddev >= 0.0);
  // Marsaglia polar method; discards the second variate for simplicity.
  for (;;) {
    const double u = 2.0 * rng.NextDouble() - 1.0;
    const double v = 2.0 * rng.NextDouble() - 1.0;
    const double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) {
      return mean + stddev * u * std::sqrt(-2.0 * std::log(s) / s);
    }
  }
}

int64_t SampleBinomial(Rng& rng, int64_t n, double p) {
  OSDP_CHECK(n >= 0);
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  // Exploit symmetry so the exact path below loops over at most n*min(p,1-p)
  // expected successes.
  if (p > 0.5) return n - SampleBinomial(rng, n, 1.0 - p);

  const double variance = static_cast<double>(n) * p * (1.0 - p);
  if (variance > 64.0) {
    // Normal approximation with continuity correction. At variance > 64 the
    // per-bin error is far below the Laplace/one-sided noise the mechanisms
    // add, so the approximation does not affect experiment shape.
    const double mean = static_cast<double>(n) * p;
    const double draw = SampleGaussian(rng, mean, std::sqrt(variance));
    const int64_t k = static_cast<int64_t>(std::llround(draw));
    return std::clamp<int64_t>(k, 0, n);
  }
  if (static_cast<double>(n) * p < 16.0) {
    // Waiting-time (geometric skips) method: O(np) expected.
    int64_t count = 0;
    int64_t pos = -1;
    for (;;) {
      pos += 1 + SampleGeometric(rng, p);
      if (pos >= n) break;
      ++count;
    }
    return count;
  }
  // Exact per-trial fallback for mid-size n.
  int64_t count = 0;
  for (int64_t i = 0; i < n; ++i) count += rng.NextBernoulli(p) ? 1 : 0;
  return count;
}

int64_t SampleGeometric(Rng& rng, double p) {
  OSDP_CHECK(p > 0.0 && p <= 1.0);
  if (p == 1.0) return 0;
  const double u = rng.NextDoublePositive();
  const double k = std::floor(std::log(u) / std::log1p(-p));
  // Sibling edge of the Laplace boundary: for tiny p the quotient can exceed
  // int64 range (log(2⁻⁵³)/log1p(-p) ≈ 36.7/p), and casting an
  // out-of-range double to int64 is undefined behaviour. Saturate instead.
  if (k >= static_cast<double>(std::numeric_limits<int64_t>::max())) {
    return std::numeric_limits<int64_t>::max();
  }
  return static_cast<int64_t>(k);
}

}  // namespace osdp
