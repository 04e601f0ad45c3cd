// Histogram: dense count vectors, the central data structure of Section 5.

#ifndef OSDP_HIST_HISTOGRAM_H_
#define OSDP_HIST_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/hist/domain.h"

namespace osdp {

/// \brief Dense non-negative-count histogram over a fixed number of bins.
///
/// Counts are stored as doubles: true histograms hold integers, but noisy
/// estimates are real-valued, and both flow through the same arithmetic.
class Histogram {
 public:
  /// All-zero histogram with `bins` bins. Only selected by parenthesized
  /// initialization — braces always pick the count-list constructor below.
  explicit Histogram(size_t bins) : counts_(bins, 0.0) {}

  /// Wraps an existing count vector.
  explicit Histogram(std::vector<double> counts) : counts_(std::move(counts)) {}

  /// Explicit count list: Histogram({5, 0, 3}) — including the single-count
  /// case Histogram({5}), which would otherwise resolve to the bins ctor.
  Histogram(std::initializer_list<double> counts) : counts_(counts) {}

  /// Number of bins.
  size_t size() const { return counts_.size(); }

  /// Count of bin i.
  double operator[](size_t i) const { return counts_[i]; }
  double& operator[](size_t i) { return counts_[i]; }

  /// Underlying count vector.
  const std::vector<double>& counts() const { return counts_; }
  std::vector<double>& counts() { return counts_; }

  /// Adds `amount` to bin i (bounds-checked).
  void Add(size_t i, double amount = 1.0);

  /// Sum of all counts (the scale ‖x‖₁ for non-negative histograms).
  double Total() const;

  /// Number of zero bins divided by the number of bins (paper's "sparsity").
  double Sparsity() const;

  /// Number of bins with count exactly zero.
  size_t ZeroBins() const;

  /// Clamps every negative count up to zero (post-processing step).
  void ClampNonNegative();

  /// True iff every count of `this` is <= the matching count of `other`.
  /// (Holds between x_ns of one-sided neighbors; see Section 5.1.)
  bool DominatedBy(const Histogram& other) const;

  /// Errors if any count is negative (validates true input histograms).
  Status ValidateNonNegative() const;

  /// Compact rendering for debugging: "[c0, c1, ...]" (first 16 bins).
  std::string ToString() const;

 private:
  std::vector<double> counts_;
};

/// \brief Row-major rows × cols histogram.
///
/// Stores a flat Histogram plus shape; exposed separately because the TIPPERS
/// experiments index by (access point, hour).
class Histogram2D {
 public:
  /// All-zero rows x cols histogram.
  Histogram2D(size_t rows, size_t cols);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  /// Count at (r, c).
  double At(size_t r, size_t c) const;
  /// Adds amount at (r, c).
  void Add(size_t r, size_t c, double amount = 1.0);

  /// Flattened row-major histogram (the form mechanisms consume).
  const Histogram& flat() const { return flat_; }
  Histogram& flat() { return flat_; }

 private:
  size_t rows_;
  size_t cols_;
  Histogram flat_;
};

}  // namespace osdp

#endif  // OSDP_HIST_HISTOGRAM_H_
