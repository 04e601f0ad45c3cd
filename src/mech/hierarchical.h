// Hierarchical histogram release with constrained inference (Hay et al.,
// "Boosting the Accuracy of Differentially Private Histograms Through
// Consistency" — the H_b method DPBench benchmarks alongside DAWA).
// Reimplemented from scratch as an additional ε-DP baseline and a recipe
// substrate.
//
// A k-ary interval tree is built over the domain; every node's count is
// perturbed with Lap(2·h/ε) where h is the tree height (each record appears
// in h node counts, so the node-count vector has sensitivity 2h under the
// bounded model). Constrained inference then enforces tree consistency:
//   * upward pass: each internal node's estimate becomes the variance-
//     optimal convex combination of its own noisy count and the sum of its
//     children's estimates;
//   * downward pass: the residual between a node's final estimate and its
//     children's sum is distributed across the children proportionally to
//     their (post-upward) subtree variances — the GLS projection onto the
//     consistency constraint. An equal split is only variance-optimal when
//     all children have equal variance (perfectly balanced subtrees); on
//     non-power-of-fanout domains the subtrees are unbalanced, shallow
//     children carry less variance, and the weighted split strictly lowers
//     leaf error.
// Leaves form the released histogram.

#ifndef OSDP_MECH_HIERARCHICAL_H_
#define OSDP_MECH_HIERARCHICAL_H_

#include <memory>

#include "src/common/random.h"
#include "src/common/result.h"
#include "src/hist/histogram.h"
#include "src/mech/two_phase.h"

namespace osdp {

/// Tree shape of the hierarchical mechanism. Every production caller (the
/// catalog, the benches) runs the defaults; the struct stays settable
/// because recipe_test's GLS checks need the unclamped tree at fanout 2,
/// where the weighted least-squares answer can be worked by hand.
struct HierarchicalOptions {
  int fanout = 4;                 ///< tree arity (Hay et al. recommend ~4-16)
  bool clamp_non_negative = true; ///< clamp leaf estimates at zero
};

/// \brief Runs the hierarchical mechanism on `x` under ε-DP and returns the
/// leaf estimates. Serial by design: the node noise is drawn in one fixed
/// (breadth-first) order, which the QuerySeed replay contract needs, and the
/// consistency passes around it take about 12 µs at d = 4096 — less than
/// the per-level barriers of a pooled version cost (one measured slower
/// than serial even on an idle one-worker pool).
Result<Histogram> HierarchicalRelease(const Histogram& x, double epsilon,
                                      const HierarchicalOptions& opts,
                                      Rng& rng);

/// Hierarchical release through the two-phase interface. The exposed grouping
/// is one singleton per bin (the model constrains but does not merge bins),
/// so the recipe's reallocation step degenerates to zeroing.
std::unique_ptr<TwoPhaseMechanism> MakeHierarchicalTwoPhase(
    HierarchicalOptions opts = {});

}  // namespace osdp

#endif  // OSDP_MECH_HIERARCHICAL_H_
