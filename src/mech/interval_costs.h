// Interval-cost engine for the DAWA L1 partition (Li et al., PVLDB 2014).
//
// The partition dynamic program asks, for every candidate interval [b, b+2^k),
// for its clustering cost Σ_{i∈[b,b+2^k)} |x_i - m| — the L1 deviation from
// the interval mean m = Sum(b, b+2^k) / 2^k. Evaluating that sum directly is
// O(len) per interval, which makes the DP O(d²) in the kEvery position mode.
// This engine precomputes the deviation of every power-of-two-length
// interval at every start position, so each DP query is an O(1) table
// lookup. The table takes O(d log d) memory.
//
// Algorithm. Each level k (window length len = 2^k) is built on its own,
// by one of two loops picked by len alone:
//
//  * len <= 64: each window's Σ|x_i - m| is summed directly in index order,
//    with m from the same prefix difference. This is the naive DP's own
//    arithmetic (L1DeviationFromMean in dawa.cc), so these levels equal it
//    bit for bit on any input. Four starts are summed side by side, each in
//    its own accumulator, which hides add latency and changes no bit.
//    Cost: O(d·len) per level, at most 126·d over all short levels.
//
//  * len > 64: the window slides across all starts. The values of x are
//    ranked once, in O(d) per pass: an LSD radix sort (8-bit digits, at
//    most 8 passes; a pass whose digit every key shares is skipped) of an
//    order-preserving uint64 image of each double, with −0 mapped to +0
//    first so the two share a rank. The sorted distinct values and the
//    ranks are unique, so any correct sort gives the same table; on
//    Lap(800)-noisy data at d = 4096 the radix sort takes about 50 µs where
//    a comparison sort of (value, index) pairs took about 90. Each level
//    keeps the window's count per rank, counts and sums per block of 64
//    ranks, and a threshold rank t = |{distinct values < m}| with the count
//    r and sum S of the window elements below t. Each start walks t from
//    the previous start's threshold to its own mean, a whole block at a
//    time where it can. It then closes with
//
//      Σ|x_i - m| = 2·Σ_{x_i<m} (m - x_i) + Σ_i (x_i - m)
//                 = 2·(r·m - S) + (W - len·m),
//
//    where W is the window's sum and len·m is exactly the prefix-difference
//    sum. Cost: O(d + threshold travel) per level, where a move of t across
//    Δ ranks costs at most Δ/64 + 128 steps. Consecutive means differ by
//    (x_{b+len} - x_b)/len, so on DAWA's stage-1 input (a spiky histogram
//    plus Lap(2/ε₁)) the walk averages under one step per start at
//    d = 4096 and under five at d = 2¹⁶; the bench's clustered input (a
//    band of distinct values with alternating outliers) takes 45–115 steps
//    per start.
//
// Levels are independent: each owns its arrays and writes only its own row
// of the table, so the pool-sharded build is bit-identical to the serial one.
//
// Layout. The rows live in one flat array, level 0 (all zeros) included, so
// the partition DP reads row k directly (Row) without a per-candidate range
// check: its loop structure keeps every [b, b + 2^k) inside [0, d).
//
// Exactness and accuracy. S, W and the per-block sums are running sums
// carried as hi + lo pairs with error-free additions (TwoSum), so they do
// not drift over the d adds and removes of a sweep, and r·m is formed
// exactly inside one fma. On integer-valued histograms (counts) every term
// is exact — m is a dyadic rational because len is a power of two — as long
// as len·Σ_window |x_i| < 2⁵² for every window (at d = 4096: counts below
// about 2²⁸). The whole table then equals the naive scan bit for bit, which
// the property tests in tests/mech_dawa_test.cc pin (engine vs naive DP:
// identical optimal cost and buckets). Past that bound both round, and
// differently. On non-integer input the long levels round differently
// from the naive scan. Against a long double scan with the
// same mean, on d ∈ {1023, 4096} with Lap(8) and Lap(800) noise over three
// histogram shapes, every level and start was within 1.1e-15 relative
// (the test bound is 5e-12).
//
// Timing. The build's running time depends only on its input. In DAWA
// that input is the stage-1 noisy histogram, which is ε₁-DP, so the time
// is post-processing of a private release and opens no timing channel.

#ifndef OSDP_MECH_INTERVAL_COSTS_H_
#define OSDP_MECH_INTERVAL_COSTS_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "src/common/check.h"

namespace osdp {

class ThreadPool;

/// \brief Precomputed L1-deviation-from-mean costs for every power-of-two-
/// length interval of a data vector. Build cost is given in the file
/// comment; O(d log d) memory; Deviation() and Row() are O(1).
class IntervalCostEngine {
 public:
  /// Builds the engine over `x`. x must be non-empty.
  explicit IntervalCostEngine(const std::vector<double>& x);

  /// \brief Builds the engine with the per-level sweeps sharded on `pool`
  /// (nullptr = the serial reference build). Each level k owns its own
  /// window state and writes only its own row, and the per-level arithmetic
  /// is the serial build's, so the parallel build is bit-identical to serial
  /// at any thread count (pinned by tests/mech_parallel_test.cc and
  /// bench/bench_mech_parallel.cc).
  IntervalCostEngine(const std::vector<double>& x, ThreadPool* pool);

  /// Domain size d.

  /// Σ_{i∈[begin,end)} x_i, from the same sequentially-accumulated prefix
  /// array the naive DP uses (bit-identical interval sums).
  double Sum(size_t begin, size_t end) const {
    return prefix_[end] - prefix_[begin];
  }

  /// Σ_{i∈[begin,end)} |x_i - mean(begin,end)|. Requires end > begin,
  /// end <= size(), and end - begin a power of two (checked).
  double Deviation(size_t begin, size_t end) const;

  /// Row k of the table: Row(k)[b] is the deviation of [b, b + 2^k) for
  /// b + 2^k <= size(); Row(0) is all zeros. Unchecked in release builds:
  /// the caller keeps its intervals inside the domain.
  const double* Row(size_t k) const {
    OSDP_DCHECK(k < row_.size());
    return table_.get() + row_[k];
  }

 private:
  size_t d_;
  std::vector<double> prefix_;  // prefix_[i] = Σ_{j<i} x_j, sequential order
  // Row k occupies [row_[k], row_[k] + d - 2^k + 1) of table_. Allocated
  // without zero-filling: every entry is written by the build.
  std::vector<size_t> row_;
  std::unique_ptr<double[]> table_;
};

}  // namespace osdp

#endif  // OSDP_MECH_INTERVAL_COSTS_H_
