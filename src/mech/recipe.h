// The general OSDP recipe of Section 5.2, applicable to ANY two-phase DP
// histogram algorithm:
//
//   1. spend ε₁ = ρ·ε on an OSDP zero-bin detector over x_ns;
//   2. spend ε₂ = (1-ρ)·ε running the DP algorithm A on the full x;
//   3. post-process: zero the detected-empty bins, then reallocate each
//      learned group's removed mass to the group's surviving bins.
//
// By sequential composition (Theorem 3.3 + Lemma 3.1) the result satisfies
// (P, ε)-OSDP. DAWAz (mech/dawaz.h) is this recipe run on DAWA's two-phase
// form; the paper leaves other instantiations as future work — AHPz and
// Hierarchicalz fall out of this module for free.
//
// The reallocation gives each group's surviving bins the ratio
// |G| / (|G| - |Z∩G|), which keeps the group's noisy total; a group whose
// every bin was detected empty stays all zero. (Algorithm 3 line 9 prints
// |B| / |Z∩B|, which would blow up as zeros vanish.)

#ifndef OSDP_MECH_RECIPE_H_
#define OSDP_MECH_RECIPE_H_

#include <memory>

#include "src/common/random.h"
#include "src/common/result.h"
#include "src/hist/histogram.h"
#include "src/mech/histogram_mechanism.h"
#include "src/mech/two_phase.h"

namespace osdp {

/// Which OSDP primitive detects zero bins in step 1.
enum class DawazZeroDetector {
  kOsdpRR = 0,        ///< binomial subsample of x_ns (paper's choice)
  kOsdpLaplaceL1 = 1, ///< clamped one-sided Laplace estimate of x_ns
};

/// Parameters of the recipe.
struct RecipeOptions {
  /// Fraction ρ of ε spent on the zero detector (paper: 0.1).
  double zero_budget_ratio = 0.1;
  /// Zero-bin detector.
  DawazZeroDetector detector = DawazZeroDetector::kOsdpRR;
};

/// \brief Applies the recipe to `base` on (x, x_ns) at ε. (P, ε)-OSDP.
Result<Histogram> ApplyOsdpRecipe(const TwoPhaseMechanism& base,
                                  const Histogram& x, const Histogram& xns,
                                  double epsilon, const RecipeOptions& opts,
                                  Rng& rng);

/// \brief Wraps a two-phase DP algorithm as an OSDP HistogramMechanism named
/// "<base>z" (so MakeRecipeMechanism(MakeAhpTwoPhase()) is "AHPz").
std::unique_ptr<HistogramMechanism> MakeRecipeMechanism(
    std::unique_ptr<TwoPhaseMechanism> base, RecipeOptions opts = {});

}  // namespace osdp

#endif  // OSDP_MECH_RECIPE_H_
