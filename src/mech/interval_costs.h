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
//    ranked once (sorted distinct values, O(d log d)). Each level keeps the
//    window's count per rank, counts and sums per block of 64 ranks, and
//    a threshold rank t = |{distinct values < m}| with the count r and sum
//    S of the window elements below t. Each start walks t from the previous
//    start's threshold to its own mean, a whole block at a time where it
//    can. It then closes with
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
#include <vector>

namespace osdp {

class ThreadPool;

/// \brief Precomputed L1-deviation-from-mean costs for every power-of-two-
/// length interval of a data vector. Build cost is given in the file
/// comment; O(d log d) memory; Deviation() is O(1).
class IntervalCostEngine {
 public:
  /// Builds the engine over `x`. x must be non-empty.
  explicit IntervalCostEngine(const std::vector<double>& x);

  /// \brief Builds the engine with the per-level sweeps sharded on `pool`
  /// (nullptr = the serial reference build). Each level k owns its own
  /// window state and writes only dev_[k], and the per-level arithmetic is
  /// the serial build's, so the parallel build is bit-identical to serial at
  /// any thread count (pinned by tests/mech_parallel_test.cc and
  /// bench/bench_mech_parallel.cc).
  IntervalCostEngine(const std::vector<double>& x, ThreadPool* pool);

  /// Domain size d.
  size_t size() const { return d_; }

  /// Σ_{i∈[begin,end)} x_i, from the same sequentially-accumulated prefix
  /// array the naive DP uses (bit-identical interval sums).
  double Sum(size_t begin, size_t end) const {
    return prefix_[end] - prefix_[begin];
  }

  /// Σ_{i∈[begin,end)} |x_i - mean(begin,end)|. Requires end > begin,
  /// end <= size(), and end - begin a power of two.
  double Deviation(size_t begin, size_t end) const;

 private:
  size_t d_;
  std::vector<double> prefix_;  // prefix_[i] = Σ_{j<i} x_j, sequential order
  // dev_[k][b] = deviation of [b, b + 2^k); level 0 is identically zero and
  // not stored.
  std::vector<std::vector<double>> dev_;
};

}  // namespace osdp

#endif  // OSDP_MECH_INTERVAL_COSTS_H_
