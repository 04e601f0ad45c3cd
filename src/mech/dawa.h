// DAWA: the Data- and Workload-Aware DP histogram algorithm (Li et al.,
// PVLDB 2014), reimplemented from scratch as the state-of-the-art ε-DP
// baseline the paper compares against (Section 6.3.3, per DPBench [18]).
//
// Two-stage structure:
//
//  Stage 1 (budget ε₁ = ε/4): *private L1 partitioning*. A noisy copy of
//  the histogram x̂ = x + Lap(2/ε₁)^d is released; every candidate interval's
//  clustering cost is computed from x̂ (post-processing, so free), debiased
//  by the expected noise contribution, and a dynamic program picks the
//  partition minimizing Σ_buckets [dev(B) + 2/ε₂] — the deviation-from-mean
//  cost plus the stage-2 noise each bucket will pay.
//
//  Stage 2 (budget ε₂ = 3ε/4): each bucket's total count is perturbed with
//  Lap(2/ε₂), clamped at zero and spread uniformly across the bucket's bins.
//
// Candidate intervals have power-of-two lengths; start positions are either
// every bin (kEvery) or multiples of len/2 (kHalfOverlap). Interval costs
// come from one of two implementations: the naive per-interval scan (O(len)
// per candidate, O(d²) total under kEvery — kept as the reference
// implementation) or the precomputed interval-cost engine
// (src/mech/interval_costs.h: a table of every candidate's cost, built by
// a radix ranking plus a sliding sweep per length; O(1) per candidate), which
// makes kEvery affordable up to large domains; kAuto position resolution
// switches to kHalfOverlap only above 4096 bins now that the engine carries
// kEvery. Both stages together satisfy ε-DP by sequential composition; the
// partition DP is post-processing of the stage-1 release.
//
// Behavioural shape preserved from the original: few buckets (low noise) on
// smooth/sorted data such as Nettrace, many buckets (≈ Laplace at 0.75ε) on
// spiky data such as Adult.

#ifndef OSDP_MECH_DAWA_H_
#define OSDP_MECH_DAWA_H_

#include <cstddef>
#include <vector>

#include "src/common/random.h"
#include "src/common/result.h"
#include "src/hist/histogram.h"
#include "src/mech/guarantee.h"

namespace osdp {

class ThreadPool;

/// How candidate interval start positions are enumerated.
enum class DawaPositions {
  kAuto = 0,         ///< kEvery for d <= 4096 bins, kHalfOverlap above
  kEvery = 1,        ///< every start position (exact DP over all candidates)
  kHalfOverlap = 2,  ///< starts at multiples of len/2 (fewer candidates)
};

/// How candidate interval costs are evaluated inside the partition DP.
enum class DawaCostImpl {
  kAuto = 0,    ///< engine for kEvery at d >= 1024, naive otherwise
  kNaive = 1,   ///< per-interval O(len) scan — the reference implementation
  kEngine = 2,  ///< precomputed IntervalCostEngine, O(1) per candidate
};

/// Parameters of DAWA.
struct DawaOptions {
  /// Candidate-interval enumeration strategy.
  DawaPositions positions = DawaPositions::kAuto;
  /// Pool for the deterministic parts of the mechanism (currently the
  /// interval-cost engine build, sharded per level). nullptr = serial.
  /// Results are bit-identical at any thread count — only noise sampling is
  /// order-sensitive, and it never runs on the pool (the RNG draw order is
  /// part of the QuerySeed replay contract).
  ThreadPool* pool = nullptr;
};

/// A contiguous bucket [begin, end) of the partition.
struct DawaBucket {
  size_t begin;
  size_t end;
  size_t size() const { return end - begin; }
};

/// DAWA's output: the estimate plus the partition that produced it (DAWAz
/// post-processing needs the buckets for mass reallocation).
struct DawaResult {
  Histogram estimate;
  std::vector<DawaBucket> partition;
};

/// \brief Runs DAWA on histogram `x` with privacy parameter ε. ε-DP.
Result<DawaResult> Dawa(const Histogram& x, double epsilon,
                        const DawaOptions& opts, Rng& rng);

/// Convenience overload with default options.
Result<DawaResult> Dawa(const Histogram& x, double epsilon, Rng& rng);

/// The partition DP's full answer: the buckets plus the optimal objective
/// value Σ_B [ dev(B) + bucket_charge ], exposed so the property tests can
/// pin the engine and naive implementations bit-identical on both.
struct L1PartitionSolution {
  std::vector<DawaBucket> buckets;
  double cost;
};

/// \brief Solves the non-private optimal L1 partition of `x` given a
/// per-bucket noise charge, with an explicit cost-implementation choice;
/// exposed for tests and the partition bench (bench/bench_dawa_partition.cc).
/// Minimizes Σ_B [ Σ_{i∈B}|x_i - mean(B)| + bucket_charge ] over partitions
/// into power-of-two-length intervals with the given position strategy.
/// `pool` shards the engine build when the engine implementation is in play
/// (nullptr = serial); the solution is bit-identical either way.
L1PartitionSolution SolveL1Partition(const std::vector<double>& x,
                                     double bucket_charge,
                                     DawaPositions positions,
                                     DawaCostImpl impl,
                                     ThreadPool* pool = nullptr);

}  // namespace osdp

#endif  // OSDP_MECH_DAWA_H_
