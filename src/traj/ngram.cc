#include "src/traj/ngram.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/mech/guarantee.h"
#include "src/mech/noise.h"

namespace osdp {

namespace {

Status ValidateOptions(const NGramOptions& opts) {
  if (opts.n <= 0) return Status::InvalidArgument("n must be positive");
  if (opts.alphabet <= 1) {
    return Status::InvalidArgument("alphabet must exceed 1");
  }
  // alphabet^n must fit a uint64 cell id.
  const double bits = opts.n * std::log2(static_cast<double>(opts.alphabet));
  if (bits >= 63.0) {
    return Status::InvalidArgument("alphabet^n exceeds 64-bit cell ids");
  }
  return Status::OK();
}

double DomainSize(const NGramOptions& opts) {
  return std::pow(static_cast<double>(opts.alphabet),
                  static_cast<double>(opts.n));
}

// (cell, user) pairs → distinct-user counts per cell.
SparseHistogram CountDistinctUsers(std::vector<std::pair<uint64_t, int32_t>> pairs,
                                   double domain_size) {
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  SparseHistogram hist(domain_size);
  for (const auto& [cell, _] : pairs) hist.Add(cell, 1.0);
  return hist;
}

}  // namespace

std::vector<std::vector<int>> TrajectoryNGrams(const Trajectory& traj,
                                               const NGramOptions& opts) {
  std::vector<int> seq;
  seq.reserve(traj.slots.size());
  for (int16_t s : traj.slots) {
    if (s == kAbsent) continue;
    if (!seq.empty() && seq.back() == s) continue;  // dwell
    seq.push_back(s);
  }
  std::vector<std::vector<int>> grams;
  if (seq.size() < static_cast<size_t>(opts.n)) return grams;
  for (size_t t = 0; t + opts.n <= seq.size(); ++t) {
    grams.emplace_back(seq.begin() + t, seq.begin() + t + opts.n);
  }
  std::sort(grams.begin(), grams.end());
  grams.erase(std::unique(grams.begin(), grams.end()), grams.end());
  return grams;
}

Result<SparseHistogram> NGramDistinctUsers(const std::vector<Trajectory>& trajs,
                                           const NGramOptions& opts) {
  OSDP_RETURN_IF_ERROR(ValidateOptions(opts));
  std::vector<std::pair<uint64_t, int32_t>> pairs;
  for (const Trajectory& traj : trajs) {
    for (const std::vector<int>& g : TrajectoryNGrams(traj, opts)) {
      pairs.emplace_back(EncodeNGram(g, opts.alphabet), traj.user_id);
    }
  }
  return CountDistinctUsers(std::move(pairs), DomainSize(opts));
}

Result<SparseHistogram> TruncatedNGramDistinctUsers(
    const std::vector<Trajectory>& trajs, const NGramOptions& opts, int k,
    Rng& rng) {
  OSDP_RETURN_IF_ERROR(ValidateOptions(opts));
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  std::vector<std::pair<uint64_t, int32_t>> pairs;
  for (const Trajectory& traj : trajs) {
    std::vector<std::vector<int>> grams = TrajectoryNGrams(traj, opts);
    // Keep at most k, chosen uniformly (partial Fisher-Yates).
    const size_t keep = std::min<size_t>(grams.size(), static_cast<size_t>(k));
    for (size_t i = 0; i < keep; ++i) {
      const size_t j = i + rng.NextBounded(grams.size() - i);
      std::swap(grams[i], grams[j]);
      pairs.emplace_back(EncodeNGram(grams[i], opts.alphabet), traj.user_id);
    }
  }
  return CountDistinctUsers(std::move(pairs), DomainSize(opts));
}

Result<SparseHistogram> NGramLaplace(const SparseHistogram& truncated, int k,
                                     double epsilon, Rng& rng) {
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  OSDP_RETURN_IF_ERROR(ValidateEpsilon(epsilon));
  // Each user contributes at most k n-grams: sensitivity 2k (bounded).
  SparseHistogram out(truncated.domain_size());
  for (const auto& [cell, count] : truncated.cells()) {
    out.Set(cell, count + DrawLaplace(2 * int64_t{k}, epsilon, rng));
  }
  return out;
}

double NGramLaplaceZeroCellError(int k, double epsilon) {
  OSDP_CHECK(k > 0 && epsilon > 0.0);
  return 2.0 * k / epsilon;  // E|Lap(2k/ε)|
}

}  // namespace osdp
