// SparseHistogram: count maps over astronomically large domains (e.g. the
// 64^n n-gram domain of Section 6.3.2) where only non-zero cells are stored.

#ifndef OSDP_HIST_SPARSE_HISTOGRAM_H_
#define OSDP_HIST_SPARSE_HISTOGRAM_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/check.h"

namespace osdp {

/// \brief Sparse histogram keyed by uint64 cell ids.
///
/// The total domain size is tracked separately so metrics (MRE) can account
/// analytically for the zero cells that are never materialized, exactly as
/// the paper does for the Laplace-mechanism n-gram baselines.
class SparseHistogram {
 public:
  /// Creates an empty histogram whose conceptual domain has `domain_size`
  /// cells (may exceed 2^63; stored as double for metric computations).
  explicit SparseHistogram(double domain_size) : domain_size_(domain_size) {
    OSDP_CHECK(domain_size >= 0.0);
  }

  /// Conceptual domain size (number of cells including implicit zeros).
  double domain_size() const { return domain_size_; }

  /// Number of materialized (non-zero at insert time) cells.
  size_t num_materialized() const { return counts_.size(); }

  /// Adds amount to a cell.
  void Add(uint64_t cell, double amount = 1.0) { counts_[cell] += amount; }

  /// Sets a cell's count outright.
  void Set(uint64_t cell, double value) { counts_[cell] = value; }

  /// Count of a cell (0 for unmaterialized cells).
  double Get(uint64_t cell) const {
    auto it = counts_.find(cell);
    return it == counts_.end() ? 0.0 : it->second;
  }

  /// Materialized cells, unordered.
  const std::unordered_map<uint64_t, double>& cells() const { return counts_; }

 private:
  double domain_size_;
  std::unordered_map<uint64_t, double> counts_;
};

/// \brief Encodes an n-gram over a base-`alphabet` symbol space as a uint64
/// cell id. Requires alphabet^n to fit in 64 bits (64^5 ≈ 2^30 does easily);
/// an encoding that would wrap uint64 — aliasing distinct n-grams onto one
/// cell — aborts via OSDP_CHECK instead of silently truncating.
uint64_t EncodeNGram(const std::vector<int>& symbols, int alphabet);

/// Inverse of EncodeNGram given the n-gram length.
std::vector<int> DecodeNGram(uint64_t cell, int alphabet, int n);

}  // namespace osdp

#endif  // OSDP_HIST_SPARSE_HISTOGRAM_H_
