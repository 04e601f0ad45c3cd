// The Laplace mechanism (Definition 2.5): the standard ε-DP baseline.

#ifndef OSDP_MECH_LAPLACE_H_
#define OSDP_MECH_LAPLACE_H_

#include <vector>

#include "src/common/random.h"
#include "src/common/result.h"
#include "src/hist/histogram.h"
#include "src/mech/guarantee.h"

namespace osdp {

/// \brief Adds i.i.d. Lap(2/ε) noise to every histogram count. ε-DP: under
/// the bounded model (replace-one neighbors) a full histogram has L1
/// sensitivity 2 — one record moving between bins changes two counts by 1
/// (Section 5: "the sensitivity of a histogram is still 2").
Result<Histogram> LaplaceMechanism(const Histogram& x, double epsilon,
                                   Rng& rng);

/// Expected L1 error of the Laplace mechanism on a d-bin histogram: 2d/ε
/// (each bin contributes E|Lap(b)| = b). Used by the Theorem 5.1 crossover
/// bench and by sanity tests.
double LaplaceExpectedL1Error(size_t bins, double epsilon);

}  // namespace osdp

#endif  // OSDP_MECH_LAPLACE_H_
