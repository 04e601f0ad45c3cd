#include "src/hist/domain.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace osdp {

Domain1D Domain1D::Categorical(size_t size) {
  OSDP_CHECK(size > 0);
  return Domain1D(/*categorical=*/true, 0.0, static_cast<double>(size), size);
}

Result<Domain1D> Domain1D::Numeric(double lo, double hi, size_t bins) {
  if (!(std::isfinite(lo) && std::isfinite(hi) && lo < hi)) {
    return Status::InvalidArgument(
        "numeric domain requires finite lo < hi");
  }
  if (bins == 0) {
    return Status::InvalidArgument("numeric domain requires at least one bin");
  }
  // BinOf divides by this width and casts the quotient to size_t: an
  // overflowing hi - lo (inf) or an underflowing width (0) would make every
  // value fall in one bin or the cast undefined.
  const double width = (hi - lo) / static_cast<double>(bins);
  if (!(std::isfinite(width) && width > 0.0)) {
    return Status::InvalidArgument(
        "numeric domain bin width (hi - lo) / bins must be finite and "
        "positive");
  }
  return Domain1D(/*categorical=*/false, lo, hi, bins);
}

size_t Domain1D::BinOf(double value) const {
  OSDP_CHECK(!categorical_);
  if (std::isnan(value)) return 0;  // total function: NaN clamps like -inf
  if (value <= lo_) return 0;
  if (value >= hi_) return size_ - 1;
  const double width = (hi_ - lo_) / static_cast<double>(size_);
  const auto bin = static_cast<size_t>((value - lo_) / width);
  return std::min(bin, size_ - 1);
}

size_t Domain1D::BinOfCategory(int64_t code) const {
  if (code <= 0) return 0;
  return std::min(static_cast<size_t>(code), size_ - 1);
}

std::pair<double, double> Domain1D::BinBounds(size_t i) const {
  OSDP_CHECK(i < size_);
  const double width = (hi_ - lo_) / static_cast<double>(size_);
  return {lo_ + static_cast<double>(i) * width,
          lo_ + static_cast<double>(i + 1) * width};
}

}  // namespace osdp
