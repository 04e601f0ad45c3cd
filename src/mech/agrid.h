// AGrid: the adaptive-grid ε-DP algorithm for 2-D histograms (Qardaji et
// al., ICDE 2013 — cited as [28] and named in Section 5.2 as a two-phase,
// recipe-extensible algorithm). Reimplemented from scratch for the TIPPERS
// AP x hour experiments.
//
// Phase 1 (budget ε₁ = ε/2): lay a coarse m₁ x m₁ grid over the domain and
// release each coarse cell's count with Lap(2/ε₁).
// Phase 2 (budget ε₂ = ε/2): subdivide each coarse cell adaptively — finer
// where the noisy phase-1 count is larger, specifically m₂ = ⌈√(ñ·ε₂/c₂)⌉
// per axis (the original's rule with c₂ = √2·c, c = 10), capped at 8 — and
// release each fine cell with Lap(2/ε₂), clamped at zero and spread
// uniformly over its bins.
//
// The exposed grouping is one group per *fine* cell, so the Section 5.2
// recipe (AGridz) can zero-and-reallocate inside fine cells.

#ifndef OSDP_MECH_AGRID_H_
#define OSDP_MECH_AGRID_H_

#include <memory>

#include "src/common/random.h"
#include "src/common/result.h"
#include "src/hist/histogram.h"
#include "src/mech/two_phase.h"

namespace osdp {

/// Parameters of AGrid.
struct AGridOptions {
  size_t rows = 0;  ///< 2-D shape of the flattened input (row-major)
  size_t cols = 0;
};

/// \brief Runs AGrid on a row-major flattened 2-D histogram under ε-DP.
/// `x.size()` must equal opts.rows * opts.cols.
Result<TwoPhaseMechanism::Output> AGrid(const Histogram& x, double epsilon,
                                        const AGridOptions& opts, Rng& rng);

/// AGrid through the two-phase interface (shape fixed at construction).
std::unique_ptr<TwoPhaseMechanism> MakeAGridTwoPhase(AGridOptions opts);

}  // namespace osdp

#endif  // OSDP_MECH_AGRID_H_
