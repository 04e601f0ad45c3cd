#include "src/mech/dawa.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/check.h"
#include "src/common/distributions.h"
#include "src/mech/interval_costs.h"

namespace osdp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The interval-cost engine makes kEvery affordable well past the old 512-bin
// cutoff; above this the candidate set is thinned to kHalfOverlap so the DP
// itself (d·log d candidates) stays cheap inside multi-rep benches.
constexpr size_t kAutoEveryMaxDomain = 4096;

// Below this domain size the naive scan's tight loop beats the engine's
// O(d log² d) build, so kAuto sticks with the reference implementation.
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

// Start-position step for intervals of length `len` under `positions`.
size_t PositionStep(DawaPositions positions, size_t len) {
  return positions == DawaPositions::kEvery ? 1 : std::max<size_t>(1, len / 2);
}

// Σ_{i∈[begin,end)} |x[i] - mean| given the range sum, via a second pass.
double L1DeviationFromMean(const std::vector<double>& x, size_t begin,
                           size_t end, double sum) {
  const double mean = sum / static_cast<double>(end - begin);
  double dev = 0.0;
  for (size_t i = begin; i < end; ++i) dev += std::abs(x[i] - mean);
  return dev;
}

// The partition dynamic program. `cost(begin, end)` returns the bucket cost
// (deviation + per-bucket charge) of interval [begin, end). Allowed intervals
// have power-of-two lengths with start positions aligned to PositionStep.
// best[j] = min cost of partitioning prefix [0, j).
template <typename CostFn>
L1PartitionSolution PartitionDP(size_t d, DawaPositions positions,
                                const CostFn& cost) {
  std::vector<double> best(d + 1, kInf);
  std::vector<size_t> back(d + 1, 0);  // begin of the last bucket
  best[0] = 0.0;
  for (size_t end = 1; end <= d; ++end) {
    for (size_t len = 1; len <= end; len <<= 1) {
      const size_t begin = end - len;
      // The interval must start on an allowed position for its length.
      if (begin % PositionStep(positions, len) != 0) continue;
      if (best[begin] == kInf) continue;
      const double cand = best[begin] + cost(begin, end);
      if (cand < best[end]) {
        best[end] = cand;
        back[end] = begin;
      }
    }
    // Length-1 intervals are always allowed, so every prefix is reachable.
    OSDP_CHECK(best[end] < kInf);
  }
  L1PartitionSolution solution;
  solution.cost = best[d];
  for (size_t end = d; end > 0; end = back[end]) {
    solution.buckets.push_back({back[end], end});
  }
  std::reverse(solution.buckets.begin(), solution.buckets.end());
  return solution;
}

// Runs the partition DP over `x` with the resolved position mode and cost
// implementation; `dev_cost(dev, len)` maps an interval's L1 deviation to its
// bucket cost. Single dispatch point for both the clean (OptimalL1Partition)
// and the noisy-debiased (Dawa stage 1) objectives, so the reference and
// engine paths cannot drift apart per call site.
template <typename DevCostFn>
L1PartitionSolution SolveWithImpl(const std::vector<double>& x,
                                  DawaPositions pos, DawaCostImpl impl,
                                  ThreadPool* pool,
                                  const DevCostFn& dev_cost) {
  const size_t d = x.size();
  if (UseCostEngine(impl, pos, d)) {
    const IntervalCostEngine engine(x, pool);
    return PartitionDP(d, pos, [&](size_t begin, size_t end) {
      return dev_cost(engine.Deviation(begin, end), end - begin);
    });
  }
  std::vector<double> prefix(d + 1, 0.0);
  for (size_t i = 0; i < d; ++i) prefix[i + 1] = prefix[i] + x[i];
  return PartitionDP(d, pos, [&](size_t begin, size_t end) {
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

std::vector<DawaBucket> OptimalL1Partition(const std::vector<double>& x,
                                           double bucket_charge,
                                           DawaPositions positions,
                                           DawaCostImpl impl,
                                           ThreadPool* pool) {
  return SolveL1Partition(x, bucket_charge, positions, impl, pool).buckets;
}

Result<DawaResult> Dawa(const Histogram& x, double epsilon,
                        const DawaOptions& opts, Rng& rng) {
  OSDP_RETURN_IF_ERROR(ValidateEpsilon(epsilon));
  if (opts.partition_budget_ratio <= 0.0 || opts.partition_budget_ratio >= 1.0) {
    return Status::InvalidArgument("partition_budget_ratio must be in (0,1)");
  }
  if (x.size() == 0) {
    return Status::InvalidArgument("empty histogram");
  }
  const size_t d = x.size();
  const double eps1 = opts.partition_budget_ratio * epsilon;
  const double eps2 = epsilon - eps1;
  const DawaPositions pos = ResolvePositions(opts.positions, d);

  // ---- Stage 1: ε₁-DP noisy histogram; partition is post-processing. ----
  const double stage1_scale = 2.0 / eps1;  // histogram sensitivity 2 (bounded)
  std::vector<double> noisy(d);
  for (size_t i = 0; i < d; ++i) {
    noisy[i] = x[i] + SampleLaplace(rng, stage1_scale);
  }
  // Bucket cost on the noisy data, debiased: Lap(b) noise inflates the L1
  // deviation of a len-bin interval by ≈ len·E|Lap(b)| = len·b, so subtract
  // it (clamped at zero). Each bucket then pays the stage-2 noise charge
  // E|Lap(2/ε₂)| = 2/ε₂ regardless of its width. The debias term is O(1) per
  // interval, so the deviation source (engine table or naive scan) is the
  // whole per-candidate cost.
  const double noise_dev_per_bin = stage1_scale;
  const double bucket_charge = 2.0 / eps2;
  std::vector<DawaBucket> buckets =
      SolveWithImpl(noisy, pos, opts.cost_impl, opts.pool,
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
  Histogram estimate(d);
  const double stage2_scale = 2.0 / eps2;
  for (const DawaBucket& b : buckets) {
    const double total = true_prefix[b.end] - true_prefix[b.begin];
    double noisy_total = total + SampleLaplace(rng, stage2_scale);
    if (opts.clamp_non_negative) noisy_total = std::max(noisy_total, 0.0);
    const double per_bin = noisy_total / static_cast<double>(b.size());
    for (size_t i = b.begin; i < b.end; ++i) estimate[i] = per_bin;
  }
  return DawaResult{std::move(estimate), std::move(buckets)};
}

Result<DawaResult> Dawa(const Histogram& x, double epsilon, Rng& rng) {
  return Dawa(x, epsilon, DawaOptions{}, rng);
}

}  // namespace osdp
