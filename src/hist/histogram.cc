#include "src/hist/histogram.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace osdp {

void Histogram::Add(size_t i, double amount) {
  OSDP_CHECK(i < counts_.size());
  counts_[i] += amount;
}

double Histogram::Total() const {
  double sum = 0.0;
  for (double c : counts_) sum += c;
  return sum;
}

double Histogram::Sparsity() const {
  if (counts_.empty()) return 0.0;
  return static_cast<double>(ZeroBins()) / static_cast<double>(counts_.size());
}

size_t Histogram::ZeroBins() const {
  size_t zeros = 0;
  for (double c : counts_) zeros += (c == 0.0) ? 1 : 0;
  return zeros;
}

void Histogram::ClampNonNegative() {
  for (double& c : counts_) c = std::max(c, 0.0);
}

bool Histogram::DominatedBy(const Histogram& other) const {
  OSDP_CHECK(size() == other.size());
  for (size_t i = 0; i < size(); ++i) {
    if (counts_[i] > other.counts_[i]) return false;
  }
  return true;
}

Status Histogram::ValidateNonNegative() const {
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] < 0.0) {
      return Status::InvalidArgument("negative count at bin " +
                                     std::to_string(i));
    }
  }
  return Status::OK();
}

std::string Histogram::ToString() const {
  std::string out = "[";
  const size_t shown = std::min<size_t>(counts_.size(), 16);
  for (size_t i = 0; i < shown; ++i) {
    if (i) out += ", ";
    out += std::to_string(counts_[i]);
  }
  if (counts_.size() > shown) out += ", ...";
  out += "]";
  return out;
}

Histogram2D::Histogram2D(size_t rows, size_t cols)
    : rows_(rows), cols_(cols), flat_(rows * cols) {
  OSDP_CHECK(rows > 0 && cols > 0);
}

double Histogram2D::At(size_t r, size_t c) const {
  OSDP_CHECK(r < rows_ && c < cols_);
  return flat_[r * cols_ + c];
}

void Histogram2D::Add(size_t r, size_t c, double amount) {
  OSDP_CHECK(r < rows_ && c < cols_);
  flat_[r * cols_ + c] += amount;
}

}  // namespace osdp
