#include "src/mech/interval_costs.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

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

// An order-preserving image of a double as a uint64: a < b iff
// OrderKey(a) < OrderKey(b) for non-NaN a, b. −0 is mapped to +0 first, so
// the two zeros share a key (they compare equal as doubles). Positive
// doubles get the sign bit set; negative ones are complemented, which
// reverses their magnitude order and puts them below every positive.
uint64_t OrderKey(double v) {
  if (v == 0.0) v = 0.0;
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
}

// Ranks x: values gets the sorted distinct values of x and rank[i] the index
// of x[i] among them. An LSD radix sort on OrderKey, 8 bits per pass; it is
// stable, so equal keys keep index order and the first of each run (its
// lowest index) supplies the distinct value, as a comparison sort of
// (value, index) pairs would. A pass whose digit is the same in every key
// moves nothing and is skipped.
void RankValues(const std::vector<double>& x, std::vector<double>* values,
                std::vector<uint32_t>* rank) {
  struct Keyed {
    uint64_t key;
    uint32_t index;
  };
  constexpr int kDigitBits = 8;
  constexpr int kPasses = 64 / kDigitBits;
  constexpr size_t kRadix = size_t{1} << kDigitBits;
  const size_t d = x.size();
  std::vector<Keyed> keyed(d);
  std::vector<Keyed> scratch(d);
  std::vector<uint32_t> count(kPasses * kRadix, 0);
  for (size_t i = 0; i < d; ++i) {
    const uint64_t key = OrderKey(x[i]);
    keyed[i] = {key, static_cast<uint32_t>(i)};
    for (int p = 0; p < kPasses; ++p) {
      ++count[p * kRadix + ((key >> (p * kDigitBits)) & (kRadix - 1))];
    }
  }
  for (int p = 0; p < kPasses; ++p) {
    const int shift = p * kDigitBits;
    uint32_t* const offset = count.data() + p * kRadix;
    if (offset[(keyed[0].key >> shift) & (kRadix - 1)] == d) continue;
    uint32_t next = 0;
    for (size_t r = 0; r < kRadix; ++r) {
      const uint32_t c = offset[r];
      offset[r] = next;
      next += c;
    }
    for (const Keyed& e : keyed) {
      scratch[offset[(e.key >> shift) & (kRadix - 1)]++] = e;
    }
    keyed.swap(scratch);
  }
  values->reserve(d);
  rank->resize(d);
  for (size_t j = 0; j < d; ++j) {
    if (j == 0 || keyed[j].key != keyed[j - 1].key) {
      values->push_back(x[keyed[j].index]);
    }
    (*rank)[keyed[j].index] = static_cast<uint32_t>(values->size() - 1);
  }
}

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
  // All rows are laid out up front so the sharded build below never touches
  // shared state; each level then writes only its own row.
  row_.resize(levels + 1);
  size_t cells = 0;
  for (size_t k = 0; k <= levels; ++k) {
    row_[k] = cells;
    cells += d_ - (size_t{1} << k) + 1;
  }
  table_.reset(new double[cells]);
  std::fill(table_.get(), table_.get() + d_, 0.0);  // level 0

  // Coordinate-compress the value universe for the long levels: values is
  // the sorted distinct values of x, and rank[i] the index of x[i] in it.
  std::vector<double> values;
  std::vector<uint32_t> rank;
  if ((size_t{1} << levels) > kDirectMaxLen) RankValues(x, &values, &rank);

  // Short windows: Σ|x_i - mean| in index order, with the mean taken from
  // the prefix difference — exactly L1DeviationFromMean in dawa.cc.
  const auto direct_level = [&](size_t k) {
    const size_t len = size_t{1} << k;
    const double nd = static_cast<double>(len);
    const size_t starts = d_ - len + 1;
    double* const row = table_.get() + row_[k];
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
      for (size_t l = 0; l < kDirectLanes; ++l) row[b + l] = dev[l];
    }
    for (; b < starts; ++b) {
      const double mean = (prefix_[b + len] - prefix_[b]) / nd;
      double dev = 0.0;
      for (size_t i = b; i < b + len; ++i) dev += std::abs(x[i] - mean);
      row[b] = dev;
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
    double* const row = table_.get() + row_[k];
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
      row[b] = 2.0 * below_dev + window_excess;
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
  // len is a power of two, so its level is its bit index.
  const int k = __builtin_ctzll(static_cast<unsigned long long>(len));
  return Row(static_cast<size_t>(k))[begin];
}

}  // namespace osdp
