// Domain: the binning scheme that maps record attributes to histogram bins.

#ifndef OSDP_HIST_DOMAIN_H_
#define OSDP_HIST_DOMAIN_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/result.h"

namespace osdp {

/// \brief A 1-D categorical or binned-numeric domain of fixed size.
///
/// Bin i covers [lo + i*width, lo + (i+1)*width) for numeric domains, or the
/// single category i for categorical domains.
class Domain1D {
 public:
  /// Categorical domain {0, ..., size-1}.
  static Domain1D Categorical(size_t size);

  /// Numeric domain [lo, hi) divided into `bins` equal-width bins.
  static Result<Domain1D> Numeric(double lo, double hi, size_t bins);

  /// Number of bins.
  size_t size() const { return size_; }
  /// True for categorical domains.
  bool is_categorical() const { return categorical_; }
  /// Numeric bounds [lo, hi) (unused by categorical domains).
  double lo() const { return lo_; }
  double hi() const { return hi_; }

  /// Bin index of a numeric value; values outside [lo, hi) clamp to the
  /// nearest edge bin (standard histogram convention). Total over all
  /// doubles: NaN clamps to bin 0, so callers may index unchecked.
  size_t BinOf(double value) const;

  /// Bin index of a categorical code; aborts when out of range.
  size_t BinOfCategory(int64_t code) const;

  /// Inclusive-exclusive bounds of bin i for numeric domains.
  std::pair<double, double> BinBounds(size_t i) const;

 private:
  Domain1D(bool categorical, double lo, double hi, size_t size)
      : categorical_(categorical), lo_(lo), hi_(hi), size_(size) {}

  bool categorical_;
  double lo_;
  double hi_;
  size_t size_;
};

/// \brief Row-major product of 1-D domains; used for 2-D (and higher)
/// histograms such as the paper's AP-by-hour TIPPERS histogram.
class DomainProduct {
 public:
  /// Builds from per-dimension domains (at least one).
  explicit DomainProduct(std::vector<Domain1D> dims);

  /// Number of dimensions.
  size_t num_dims() const { return dims_.size(); }
  /// Domain of dimension d.
  const Domain1D& dim(size_t d) const { return dims_[d]; }
  /// Total number of cells (product of dimension sizes).
  size_t size() const { return total_; }

  /// Flattens per-dimension bin indices into a row-major cell index.
  size_t Flatten(const std::vector<size_t>& indices) const;

  /// Inverse of Flatten.
  std::vector<size_t> Unflatten(size_t cell) const;

 private:
  std::vector<Domain1D> dims_;
  std::vector<size_t> strides_;
  size_t total_;
};

}  // namespace osdp

#endif  // OSDP_HIST_DOMAIN_H_
