// Domain: the binning scheme that maps record attributes to histogram bins.

#ifndef OSDP_HIST_DOMAIN_H_
#define OSDP_HIST_DOMAIN_H_

#include <cstdint>
#include <string>
#include <utility>

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
  /// InvalidArgument unless lo and hi are finite, lo < hi, bins > 0, and the
  /// bin width (hi - lo) / bins is finite and positive.
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

  /// Bin index of a categorical code. Codes outside [0, size) clamp to the
  /// nearest edge bin, as BinOf clamps numeric values: a negative code goes
  /// to bin 0 and a code >= size to bin size - 1. Total, so a column holding
  /// codes the domain does not name (say, any int column binned with too
  /// small a Categorical) still accumulates, whatever rows it holds.
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

}  // namespace osdp

#endif  // OSDP_HIST_DOMAIN_H_
