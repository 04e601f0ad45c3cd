// The Laplace mechanism (Definition 2.5): the standard ε-DP baseline.

#ifndef OSDP_MECH_LAPLACE_H_
#define OSDP_MECH_LAPLACE_H_

#include <vector>

#include "src/common/random.h"
#include "src/common/result.h"
#include "src/hist/histogram.h"
#include "src/mech/guarantee.h"

namespace osdp {

/// Parameters of the Laplace mechanism.
struct LaplaceOptions {
  /// L1 sensitivity of the released statistic. Under the bounded model
  /// (replace-one neighbors) a full histogram has sensitivity 2 — one record
  /// moving between bins changes two counts by 1 (Section 5: "the sensitivity
  /// of a histogram is still 2").
  double sensitivity = 2.0;
};

/// \brief Adds i.i.d. Lap(sensitivity/ε) noise to a scalar.
double LaplaceMechanismScalar(double value, double epsilon,
                              const LaplaceOptions& opts, Rng& rng);

/// \brief Adds i.i.d. Lap(sensitivity/ε) noise to every histogram count.
/// Satisfies ε-DP when `opts.sensitivity` upper-bounds the true sensitivity.
Result<Histogram> LaplaceMechanism(const Histogram& x, double epsilon,
                                   const LaplaceOptions& opts, Rng& rng);

/// Convenience overload with default options.
Result<Histogram> LaplaceMechanism(const Histogram& x, double epsilon,
                                   Rng& rng);

/// Expected L1 error of the Laplace mechanism on a d-bin histogram:
/// d * sensitivity / ε (each bin contributes E|Lap(b)| = b). Used by the
/// Theorem 5.1 crossover bench and by sanity tests.
double LaplaceExpectedL1Error(size_t bins, double epsilon,
                              double sensitivity = 2.0);

}  // namespace osdp

#endif  // OSDP_MECH_LAPLACE_H_
