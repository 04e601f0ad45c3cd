// TwoPhaseMechanism: the abstraction behind the paper's Section 5.2 recipe.
//
// "We focus on an important class of DP algorithms for histogram release
//  that can be abstracted to two distinct phases: first they query a set of
//  statistics on the data and learn an underlying model of it; then they use
//  the learnt model and the Laplace mechanism to add noise to a set of
//  associated aggregate counts."
//
// Implementations expose the learned *grouping* of bins alongside the
// estimate so the OSDP recipe (mech/recipe.h) can post-process: zero out the
// detected-empty bins and reallocate each group's mass to its survivors.

#ifndef OSDP_MECH_TWO_PHASE_H_
#define OSDP_MECH_TWO_PHASE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/common/result.h"
#include "src/hist/histogram.h"
#include "src/mech/dawa.h"

namespace osdp {

/// A learned grouping: each group's bins received a shared aggregate.
using BinGroups = std::vector<std::vector<uint32_t>>;

/// \brief An ε-DP histogram algorithm with a learn-then-noise structure.
class TwoPhaseMechanism {
 public:
  virtual ~TwoPhaseMechanism() = default;

  /// Display name ("DAWA", "AHP", "Hierarchical").
  virtual const std::string& name() const = 0;

  /// The run's estimate plus the grouping its model induced. Groups must
  /// tile [0, x.size()) exactly (every bin in exactly one group).
  struct Output {
    Histogram estimate;
    BinGroups groups;
  };

  /// Runs the full two-phase algorithm under ε-DP.
  virtual Result<Output> Run(const Histogram& x, double epsilon,
                             Rng& rng) const = 0;
};

/// Validates that `groups` tiles [0, bins) exactly.
Status ValidateBinGroups(const BinGroups& groups, size_t bins);

/// DAWA (mech/dawa.h) run with `opts` through the two-phase interface;
/// buckets become contiguous groups.
std::unique_ptr<TwoPhaseMechanism> MakeDawaTwoPhase(DawaOptions opts = {});

}  // namespace osdp

#endif  // OSDP_MECH_TWO_PHASE_H_
