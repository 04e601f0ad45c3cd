#include "src/mech/interval_costs.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "src/common/check.h"
#include "src/runtime/thread_pool.h"

namespace osdp {

namespace {

// Levels with windows up to this length are summed directly: 64 terms per
// start is cheaper than maintaining order statistics, and the direct sum is
// the naive reference's own arithmetic.
constexpr size_t kDirectMaxLen = 64;

// Starts summed side by side in the direct loop. Each start keeps its own
// accumulator and adds its terms in index order, so interleaving changes no
// bit; it only hides the add latency of one long dependency chain.
constexpr size_t kDirectLanes = 4;

// The threshold walk skips whole blocks of 2^kBlockShift ranks using
// per-block window counts and sums, so a mean that jumps across many
// distinct values costs O(universe / 64 + 64) steps, not O(universe).
constexpr size_t kBlockShift = 6;
constexpr size_t kBlock = size_t{1} << kBlockShift;

// A running sum held as hi + lo. Each addition to hi is error-free (Knuth's
// TwoSum) and its rounding error goes to lo, so a long run of adds and
// removes does not drift: each addition costs a relative error of about
// 2⁻¹⁰⁶, not 2⁻⁵³. A sum of integers below 2⁵³ stays exact in hi with
// lo == 0.
struct CompensatedSum {
  double hi = 0.0;
  double lo = 0.0;

  void Add(double v) {
    const double s = hi + v;
    const double v_part = s - hi;
    lo += (hi - (s - v_part)) + (v - v_part);
    hi = s;
  }
  void Add(const CompensatedSum& o) {
    Add(o.hi);
    lo += o.lo;
  }
  void Sub(const CompensatedSum& o) {
    Add(-o.hi);
    lo -= o.lo;
  }
};

}  // namespace

IntervalCostEngine::IntervalCostEngine(const std::vector<double>& x)
    : IntervalCostEngine(x, nullptr) {}

IntervalCostEngine::IntervalCostEngine(const std::vector<double>& x,
                                       ThreadPool* pool) {
  OSDP_CHECK(!x.empty());
  d_ = x.size();
  prefix_.assign(d_ + 1, 0.0);
  for (size_t i = 0; i < d_; ++i) prefix_[i + 1] = prefix_[i] + x[i];

  size_t levels = 0;
  while ((size_t{2} << levels) <= d_) ++levels;  // max k with 2^k <= d
  dev_.resize(levels + 1);
  // The per-level vectors are sized up front so the sharded build below
  // never reallocates shared state; each level then writes only its own
  // dev_[k].
  for (size_t k = 1; k <= levels; ++k) {
    dev_[k].resize(d_ - (size_t{1} << k) + 1);
  }

  // Coordinate-compress the value universe for the long levels: values is
  // the sorted distinct values of x, and rank[i] the index of x[i] in it.
  std::vector<double> values;
  std::vector<uint32_t> rank;
  if ((size_t{1} << levels) > kDirectMaxLen) {
    std::vector<std::pair<double, uint32_t>> sorted(d_);
    for (size_t i = 0; i < d_; ++i) {
      sorted[i] = {x[i], static_cast<uint32_t>(i)};
    }
    std::sort(sorted.begin(), sorted.end());
    values.reserve(d_);
    rank.resize(d_);
    for (const auto& [v, i] : sorted) {
      if (values.empty() || values.back() != v) values.push_back(v);
      rank[i] = static_cast<uint32_t>(values.size() - 1);
    }
  }

  // Short windows: Σ|x_i - mean| in index order, with the mean taken from
  // the prefix difference — exactly L1DeviationFromMean in dawa.cc.
  const auto direct_level = [&](size_t k) {
    const size_t len = size_t{1} << k;
    const double nd = static_cast<double>(len);
    const size_t starts = dev_[k].size();
    size_t b = 0;
    for (; b + kDirectLanes <= starts; b += kDirectLanes) {
      double mean[kDirectLanes];
      double dev[kDirectLanes];
      for (size_t l = 0; l < kDirectLanes; ++l) {
        mean[l] = (prefix_[b + l + len] - prefix_[b + l]) / nd;
        dev[l] = 0.0;
      }
      for (size_t i = 0; i < len; ++i) {
        for (size_t l = 0; l < kDirectLanes; ++l) {
          dev[l] += std::abs(x[b + l + i] - mean[l]);
        }
      }
      for (size_t l = 0; l < kDirectLanes; ++l) dev_[k][b + l] = dev[l];
    }
    for (; b < starts; ++b) {
      const double mean = (prefix_[b + len] - prefix_[b]) / nd;
      double dev = 0.0;
      for (size_t i = b; i < b + len; ++i) dev += std::abs(x[i] - mean);
      dev_[k][b] = dev;
    }
  };

  // Long windows: slide the window across all starts, keeping per-rank
  // counts of its elements and the count and sum of those below the
  // threshold rank t = |{distinct values < mean}|. Each start walks t from
  // the previous start's value to its own mean, then closes with
  //   Σ|x_i - m| = 2·Σ_{x_i < m} (m - x_i) + Σ_i (x_i - m)
  //              = 2·(below·m - sum_below) + (window - len·m),
  // where len·m is exactly the prefix-difference sum.
  const auto sweep_level = [&](size_t k) {
    const size_t len = size_t{1} << k;
    const size_t universe = values.size();
    std::vector<uint32_t> count(universe, 0);
    std::vector<uint32_t> block_count((universe >> kBlockShift) + 1, 0);
    std::vector<CompensatedSum> block_sum(block_count.size());
    size_t t = 0;
    int64_t below = 0;
    CompensatedSum sum_below;
    CompensatedSum window;
    const auto enter = [&](size_t i) {
      const uint32_t r = rank[i];
      ++count[r];
      ++block_count[r >> kBlockShift];
      block_sum[r >> kBlockShift].Add(x[i]);
      window.Add(x[i]);
      if (r < t) {
        ++below;
        sum_below.Add(x[i]);
      }
    };
    const auto leave = [&](size_t i) {
      const uint32_t r = rank[i];
      --count[r];
      --block_count[r >> kBlockShift];
      block_sum[r >> kBlockShift].Add(-x[i]);
      window.Add(-x[i]);
      if (r < t) {
        --below;
        sum_below.Add(-x[i]);
      }
    };
    for (size_t i = 0; i < len; ++i) enter(i);
    for (size_t b = 0;; ++b) {
      const double sum = prefix_[b + len] - prefix_[b];
      // len is a power of two, so this division is exact (mean is dyadic
      // whenever sum is integer) — the key to bit-identical costs.
      const double mean = sum / static_cast<double>(len);
      while (t < universe && values[t] < mean) {
        if ((t & (kBlock - 1)) == 0 && t + kBlock <= universe &&
            values[t + kBlock - 1] < mean) {
          below += block_count[t >> kBlockShift];
          sum_below.Add(block_sum[t >> kBlockShift]);
          t += kBlock;
        } else {
          below += count[t];
          sum_below.Add(count[t] * values[t]);
          ++t;
        }
      }
      while (t > 0 && values[t - 1] >= mean) {
        if ((t & (kBlock - 1)) == 0 && values[t - kBlock] >= mean) {
          t -= kBlock;
          below -= block_count[t >> kBlockShift];
          sum_below.Sub(block_sum[t >> kBlockShift]);
        } else {
          --t;
          below -= count[t];
          sum_below.Add(-(count[t] * values[t]));
        }
      }
      // fma keeps below·m exact, so the cancellation against sum_below
      // costs one rounding of the (small) difference, not of its terms.
      const double below_dev =
          std::fma(static_cast<double>(below), mean, -sum_below.hi) -
          sum_below.lo;
      const double window_excess = (window.hi - sum) + window.lo;
      dev_[k][b] = 2.0 * below_dev + window_excess;
      if (b + len >= d_) break;
      leave(b);
      enter(b + len);
    }
  };

  // Levels are independent — each owns its window state and reads only the
  // shared immutable x/prefix/values/rank arrays — which is what makes the
  // sharded build below bit-identical to this serial reference.
  const auto build_level = [&](size_t k) {
    if ((size_t{1} << k) <= kDirectMaxLen) {
      direct_level(k);
    } else {
      sweep_level(k);
    }
  };
  if (pool == nullptr) {
    for (size_t k = 1; k <= levels; ++k) build_level(k);
  } else {
    // One chunk per level: there are only log₂ d of them, so finer chunking
    // buys nothing.
    pool->ParallelForBlocked(1, levels + 1, 1, [&](size_t lo, size_t hi) {
      for (size_t k = lo; k < hi; ++k) build_level(k);
    });
  }
}

double IntervalCostEngine::Deviation(size_t begin, size_t end) const {
  // Hard checks in every build type: under NDEBUG a DCHECK here would let a
  // non-power-of-two length silently index the wrong level via the ctz below
  // and return a wrong (not just noisy) partition cost.
  OSDP_CHECK_MSG(begin < end && end <= d_,
                 "interval [" << begin << ", " << end << ") out of range for d="
                              << d_);
  const size_t len = end - begin;
  OSDP_CHECK_MSG((len & (len - 1)) == 0,
                 "interval length " << len << " is not a power of two");
  if (len == 1) return 0.0;
  // len is a power of two, so its level is its bit index — keeps the hot DP
  // query a genuine O(1) lookup.
  const int k = __builtin_ctzll(static_cast<unsigned long long>(len));
  return dev_[static_cast<size_t>(k)][begin];
}

}  // namespace osdp
