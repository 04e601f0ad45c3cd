#include "src/mech/dawa.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/check.h"
#include "src/mech/interval_costs.h"
#include "src/mech/noise.h"

namespace osdp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Fraction of ε spent on stage-1 partitioning (DAWA's default).
constexpr double kPartitionBudgetRatio = 0.25;

// The interval-cost engine makes kEvery affordable well past the old 512-bin
// cutoff; above this the candidate set is thinned to kHalfOverlap so the DP
// itself (d·log d candidates) stays cheap inside multi-rep benches.
constexpr size_t kAutoEveryMaxDomain = 4096;

// Below this domain size kAuto keeps the naive reference scan. Its O(d²)
// cost is small there (about 0.5 ms at d = 1024), and on non-integer input
// the two implementations round differently, so moving the cutoff would
// change the released bits of small-domain DAWA runs.
constexpr size_t kAutoEngineMinDomain = 1024;

// Resolves kAuto to a concrete strategy for a d-bin domain.
DawaPositions ResolvePositions(DawaPositions positions, size_t d) {
  if (positions != DawaPositions::kAuto) return positions;
  return d <= kAutoEveryMaxDomain ? DawaPositions::kEvery
                                  : DawaPositions::kHalfOverlap;
}

// Resolves kAuto to a concrete cost implementation. The engine pays off when
// the DP would otherwise scan every start position of a large domain; under
// kHalfOverlap the naive total work is already O(d log d), so it stays.
bool UseCostEngine(DawaCostImpl impl, DawaPositions resolved, size_t d) {
  switch (impl) {
    case DawaCostImpl::kNaive:
      return false;
    case DawaCostImpl::kEngine:
      return true;
    case DawaCostImpl::kAuto:
      return resolved == DawaPositions::kEvery && d >= kAutoEngineMinDomain;
  }
  return false;
}

// Σ_{i∈[begin,end)} |x[i] - mean| given the range sum, via a second pass.
double L1DeviationFromMean(const std::vector<double>& x, size_t begin,
                           size_t end, double sum) {
  const double mean = sum / static_cast<double>(end - begin);
  double dev = 0.0;
  for (size_t i = begin; i < end; ++i) dev += std::abs(x[i] - mean);
  return dev;
}

// The partition dynamic program. `cost(k, begin)` returns the bucket cost
// (deviation + per-bucket charge) of [begin, begin + 2^k). Allowed intervals
// have power-of-two lengths; under kHalfOverlap a length-len interval starts
// on a multiple of max(1, len/2), under kEvery anywhere. best[j] = min cost
// of partitioning prefix [0, j). Every cost() call has begin + 2^k <= end
// <= d, so a cost source needs no range check of its own.
template <bool kHalfOverlap, typename CostFn>
L1PartitionSolution PartitionDPLoop(size_t d, const CostFn& cost) {
  std::vector<double> best(d + 1, kInf);
  std::vector<size_t> back(d + 1, 0);  // begin of the last bucket
  best[0] = 0.0;
  for (size_t end = 1; end <= d; ++end) {
    double best_end = kInf;
    size_t back_end = 0;
    size_t k = 0;
    for (size_t len = 1; len <= end; len <<= 1, ++k) {
      const size_t begin = end - len;
      // len is a power of two, so max(1, len/2) - 1 = (len - 1) >> 1 masks
      // the start's offset from the allowed grid.
      if (kHalfOverlap && (begin & ((len - 1) >> 1)) != 0) continue;
      // best[begin] is finite: length-1 intervals are always allowed, so
      // every shorter prefix was reached (checked below).
      const double cand = best[begin] + cost(k, begin);
      if (cand < best_end) {
        best_end = cand;
        back_end = begin;
      }
    }
    OSDP_CHECK(best_end < kInf);
    best[end] = best_end;
    back[end] = back_end;
  }
  L1PartitionSolution solution;
  solution.cost = best[d];
  for (size_t end = d; end > 0; end = back[end]) {
    solution.buckets.push_back({back[end], end});
  }
  std::reverse(solution.buckets.begin(), solution.buckets.end());
  return solution;
}

template <typename CostFn>
L1PartitionSolution PartitionDP(size_t d, DawaPositions positions,
                                const CostFn& cost) {
  return positions == DawaPositions::kHalfOverlap
             ? PartitionDPLoop<true>(d, cost)
             : PartitionDPLoop<false>(d, cost);
}

// Runs the partition DP over `x` with the resolved position mode and cost
// implementation; `dev_cost(dev, len)` maps an interval's L1 deviation to its
// bucket cost. Single dispatch point for both the clean (SolveL1Partition)
// and the noisy-debiased (Dawa stage 1) objectives, and both cost sources
// run the same DP loop, so the reference and engine paths cannot drift
// apart per call site.
template <typename DevCostFn>
L1PartitionSolution SolveWithImpl(const std::vector<double>& x,
                                  DawaPositions pos, DawaCostImpl impl,
                                  ThreadPool* pool,
                                  const DevCostFn& dev_cost) {
  const size_t d = x.size();
  if (UseCostEngine(impl, pos, d)) {
    const IntervalCostEngine engine(x, pool);
    return PartitionDP(d, pos, [&](size_t k, size_t begin) {
      return dev_cost(engine.Row(k)[begin], size_t{1} << k);
    });
  }
  std::vector<double> prefix(d + 1, 0.0);
  for (size_t i = 0; i < d; ++i) prefix[i + 1] = prefix[i] + x[i];
  return PartitionDP(d, pos, [&](size_t k, size_t begin) {
    const size_t end = begin + (size_t{1} << k);
    const double sum = prefix[end] - prefix[begin];
    return dev_cost(L1DeviationFromMean(x, begin, end, sum), end - begin);
  });
}

}  // namespace

L1PartitionSolution SolveL1Partition(const std::vector<double>& x,
                                     double bucket_charge,
                                     DawaPositions positions,
                                     DawaCostImpl impl, ThreadPool* pool) {
  OSDP_CHECK(!x.empty());
  const DawaPositions pos = ResolvePositions(positions, x.size());
  return SolveWithImpl(x, pos, impl, pool, [&](double dev, size_t) {
    return dev + bucket_charge;
  });
}

Result<DawaResult> Dawa(const Histogram& x, double epsilon,
                        const DawaOptions& opts, Rng& rng) {
  OSDP_RETURN_IF_ERROR(ValidateEpsilon(epsilon));
  if (x.size() == 0) {
    return Status::InvalidArgument("empty histogram");
  }
  const size_t d = x.size();
  const double eps1 = kPartitionBudgetRatio * epsilon;
  const double eps2 = epsilon - eps1;
  const DawaPositions pos = ResolvePositions(opts.positions, d);

  // ---- Stage 1: ε₁-DP noisy histogram; partition is post-processing. ----
  // Histogram sensitivity 2 (bounded).
  std::vector<double> noisy = x.counts();
  AddLaplace(noisy, 2, eps1, rng);
  // Bucket cost on the noisy data, debiased: Lap(b) noise inflates the L1
  // deviation of a len-bin interval by ≈ len·E|Lap(b)| = len·b, so subtract
  // it (clamped at zero). Each bucket then pays the stage-2 noise charge
  // E|Lap(2/ε₂)| = 2/ε₂ regardless of its width. The debias term is O(1) per
  // interval, so the deviation source (engine table or naive scan) is the
  // whole per-candidate cost.
  const double noise_dev_per_bin = 2.0 / eps1;
  const double bucket_charge = 2.0 / eps2;
  std::vector<DawaBucket> buckets =
      SolveWithImpl(noisy, pos, DawaCostImpl::kAuto, opts.pool,
                    [&](double dev, size_t len) {
        return std::max(0.0,
                        dev - static_cast<double>(len) * noise_dev_per_bin) +
               bucket_charge;
      }).buckets;

  // ---- Stage 2: ε₂-DP bucket totals, spread uniformly. ----
  // One record change moves one unit between two buckets at most, so the
  // bucket-total vector has the same L1 sensitivity 2 as the histogram.
  std::vector<double> true_prefix(d + 1, 0.0);
  for (size_t i = 0; i < d; ++i) true_prefix[i + 1] = true_prefix[i] + x[i];
  std::vector<double> totals(buckets.size());
  for (size_t k = 0; k < buckets.size(); ++k) {
    totals[k] = true_prefix[buckets[k].end] - true_prefix[buckets[k].begin];
  }
  AddLaplace(totals, 2, eps2, rng);
  Histogram estimate(d);
  for (size_t k = 0; k < buckets.size(); ++k) {
    const DawaBucket& b = buckets[k];
    const double per_bin =
        std::max(totals[k], 0.0) / static_cast<double>(b.size());
    for (size_t i = b.begin; i < b.end; ++i) estimate[i] = per_bin;
  }
  return DawaResult{std::move(estimate), std::move(buckets)};
}

Result<DawaResult> Dawa(const Histogram& x, double epsilon, Rng& rng) {
  return Dawa(x, epsilon, DawaOptions{}, rng);
}

}  // namespace osdp
