// Analytic densities of the noise distributions, the oracles the sampler and
// privacy-ratio tests compare against:
//
//  * Laplace(b):         f(x) = exp(-|x|/b) / (2b)                (Def. 2.3)
//  * OneSidedLaplace(b): f(x) = exp(x/b) / b for x <= 0, else 0  (Def. 5.1)

#ifndef OSDP_TESTS_DENSITIES_H_
#define OSDP_TESTS_DENSITIES_H_

#include <cmath>

#include "src/common/check.h"

namespace osdp {

/// Laplace(0, b) probability density at x.
inline double LaplacePdf(double x, double b) {
  OSDP_CHECK(b > 0.0);
  return std::exp(-std::abs(x) / b) / (2.0 * b);
}

/// Laplace(0, b) cumulative distribution at x.
inline double LaplaceCdf(double x, double b) {
  OSDP_CHECK(b > 0.0);
  if (x < 0) return 0.5 * std::exp(x / b);
  return 1.0 - 0.5 * std::exp(-x / b);
}

/// One-sided Laplace Lap^-(b) density at x.
inline double OneSidedLaplacePdf(double x, double b) {
  OSDP_CHECK(b > 0.0);
  if (x > 0) return 0.0;
  return std::exp(x / b) / b;
}

/// One-sided Laplace Lap^-(b) CDF at x.
inline double OneSidedLaplaceCdf(double x, double b) {
  OSDP_CHECK(b > 0.0);
  if (x >= 0) return 1.0;
  return std::exp(x / b);
}

}  // namespace osdp

#endif  // OSDP_TESTS_DENSITIES_H_
