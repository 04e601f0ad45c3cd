// AHP: Accurate Histogram Publication under differential privacy (Zhang et
// al., cited as [38] and named in Section 5.2 as a recipe-extensible
// two-phase algorithm). Reimplemented from scratch.
//
// Phase 1 (budget ε₁ = ε/2): release a noisy copy of the histogram,
// threshold the small counts to zero (denoising), and greedily cluster bins
// with similar noisy counts — AHP clusters by *value*, not by position, so
// groups are non-contiguous sets of bins.
// Phase 2 (budget ε₂ = ε/2): perturb each cluster's total with Lap(2/ε₂),
// clamp it at zero, and assign every member bin the cluster mean.
//
// Calibration notes (documented simplifications of the original):
//  * the threshold is scale·√(2 ln d) — the standard universal denoising
//    threshold for Laplace noise of the given scale;
//  * clusters grow (over the value-sorted bins) while the spread between the
//    cluster's extreme noisy counts stays under twice the phase-2 noise
//    scale, balancing approximation error against noise, which is the
//    original's error-balancing criterion in simplified form.

#ifndef OSDP_MECH_AHP_H_
#define OSDP_MECH_AHP_H_

#include <memory>

#include "src/common/random.h"
#include "src/common/result.h"
#include "src/hist/histogram.h"
#include "src/mech/two_phase.h"

namespace osdp {

/// \brief Runs AHP on histogram `x` under ε-DP; exposes the clusters.
Result<TwoPhaseMechanism::Output> Ahp(const Histogram& x, double epsilon,
                                      Rng& rng);

/// AHP through the two-phase interface (for the Section 5.2 recipe).
std::unique_ptr<TwoPhaseMechanism> MakeAhpTwoPhase();

}  // namespace osdp

#endif  // OSDP_MECH_AHP_H_
