// RowMask: a packed per-row bitmap, the currency of the vectorized scan layer.
//
// Every batch operation in the library — policy classification, WHERE-clause
// filtering, masked histogram construction — produces or consumes a RowMask.
// Bits are stored 64 per word so that logical combination (AND/OR/NOT) runs
// word-at-a-time, counting runs on the word popcount kernels of
// src/data/bit_kernels.h (hardware popcount where the CPU has it), and
// iteration over the selected rows runs on count-trailing-zeros rather than
// a per-row branch.

#ifndef OSDP_DATA_ROW_MASK_H_
#define OSDP_DATA_ROW_MASK_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/check.h"
#include "src/data/bit_kernels.h"

namespace osdp {

/// \brief Fixed-size packed bitmap over row indices [0, size).
///
/// Word layout: bit i lives at words()[i / 64] bit (i % 64). Bits past
/// `size()` in the last word are kept zero (every mutator restores this
/// invariant), so Count() and word-wise combination need no special casing.
class RowMask {
 public:
  RowMask() = default;

  /// Mask over `size` rows, all bits set to `value`.
  explicit RowMask(size_t size, bool value = false)
      : size_(size), words_(NumWords(size), value ? ~uint64_t{0} : 0) {
    ClearTail();
  }

  /// Builds from a bool vector (bridge from the legacy mask representation).
  static RowMask FromBools(const std::vector<bool>& bools) {
    RowMask m(bools.size());
    for (size_t i = 0; i < bools.size(); ++i) {
      if (bools[i]) m.words_[i >> 6] |= uint64_t{1} << (i & 63);
    }
    return m;
  }

  /// Number of rows covered.
  size_t size() const { return size_; }
  /// True iff no rows are covered.
  bool empty() const { return size_ == 0; }

  /// Bit of row i.
  bool Test(size_t i) const {
    OSDP_DCHECK(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  /// Sets bit of row i to `value`.
  void Set(size_t i, bool value = true) {
    OSDP_DCHECK(i < size_);
    const uint64_t bit = uint64_t{1} << (i & 63);
    if (value) {
      words_[i >> 6] |= bit;
    } else {
      words_[i >> 6] &= ~bit;
    }
  }

  /// \brief Grows the mask to cover `new_size` rows (>= size()); existing
  /// bits are preserved and the new bits are zero. This is the streaming
  /// ingest primitive: TableBuilder extends the policy mask in place as
  /// batches arrive, then evaluates only the appended rows.
  void Resize(size_t new_size) {
    OSDP_CHECK(new_size >= size_);
    // Bits past the old size() were kept zero by the class invariant, so
    // growing is just sizing the word vector; no bit surgery needed.
    size_ = new_size;
    words_.resize(NumWords(new_size), 0);
  }

  /// Number of set bits.
  size_t Count() const { return PopcountWords(words_.data(), 0, words_.size()); }

  /// \name In-place logical combination; operands must cover equal row counts.
  /// @{
  RowMask& AndWith(const RowMask& other) {
    OSDP_CHECK(other.size_ == size_);
    for (size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
    return *this;
  }
  RowMask& AndNotWith(const RowMask& other) {
    OSDP_CHECK(other.size_ == size_);
    for (size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
    return *this;
  }
  /// Complements every bit.
  RowMask& FlipAll() {
    for (uint64_t& w : words_) w = ~w;
    ClearTail();
    return *this;
  }
  /// @}

  /// True iff any bit is set in both masks; short-circuits on the first
  /// overlapping word (no copies, no full popcount).
  bool Intersects(const RowMask& other) const {
    OSDP_CHECK(other.size_ == size_);
    for (size_t i = 0; i < words_.size(); ++i) {
      if ((words_[i] & other.words_[i]) != 0) return true;
    }
    return false;
  }

  /// True iff every set bit of this mask is also set in `other`.
  bool IsSubsetOf(const RowMask& other) const {
    OSDP_CHECK(other.size_ == size_);
    for (size_t i = 0; i < words_.size(); ++i) {
      if ((words_[i] & ~other.words_[i]) != 0) return false;
    }
    return true;
  }

  /// Calls fn(row) for every set bit, in ascending row order. Iteration cost
  /// is proportional to the number of set bits, not size().
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    for (size_t wi = 0; wi < words_.size(); ++wi) {
      uint64_t w = words_[wi];
      while (w != 0) {
        const int bit = __builtin_ctzll(w);
        fn((wi << 6) + static_cast<size_t>(bit));
        w &= w - 1;
      }
    }
  }

  /// Calls fn(row) for every set bit in [begin, end), in ascending row
  /// order — ForEachSet restricted to a row range. Partial first/last words
  /// are handled, so the range need not be word-aligned. Concurrent calls on
  /// disjoint (or even overlapping) ranges of a const mask are safe: the
  /// traversal only reads.
  template <typename Fn>
  void ForEachSetInRange(size_t begin, size_t end, Fn&& fn) const {
    WalkRange(begin, end, [this](size_t wi) { return words_[wi]; }, fn);
  }

  /// ForEachSetInRange over the rows set in both this mask and `also`
  /// (equal sizes). The AND happens word by word inside the walk, so the
  /// intersection is never materialized; the rows visited, and their order,
  /// are exactly those of a walk over a copy ANDed with `also`.
  template <typename Fn>
  void ForEachSetInRange(const RowMask& also, size_t begin, size_t end,
                         Fn&& fn) const {
    OSDP_CHECK(also.size_ == size_);
    const uint64_t* other = also.words_.data();
    WalkRange(begin, end,
              [this, other](size_t wi) { return words_[wi] & other[wi]; }, fn);
  }

  /// The set rows as an ascending index vector.
  std::vector<size_t> ToIndices() const {
    std::vector<size_t> out;
    out.reserve(Count());
    ForEachSet([&](size_t row) { out.push_back(row); });
    return out;
  }

  /// Bridge back to the legacy bool-vector representation.
  std::vector<bool> ToBools() const {
    std::vector<bool> out(size_, false);
    ForEachSet([&](size_t row) { out[row] = true; });
    return out;
  }

  bool operator==(const RowMask& other) const {
    return size_ == other.size_ && words_ == other.words_;
  }
  bool operator!=(const RowMask& other) const { return !(*this == other); }

  /// \name Raw word access for vectorized producers (CompiledPredicate).
  /// @{
  size_t num_words() const { return words_.size(); }
  uint64_t word(size_t i) const { return words_[i]; }
  uint64_t* mutable_words() { return words_.data(); }
  const uint64_t* words() const { return words_.data(); }
  /// Zeroes the bits past size() in the last word; producers that write raw
  /// words call this once at the end to restore the class invariant.
  void ClearTail() {
    const size_t tail = size_ & 63;
    if (tail != 0 && !words_.empty()) {
      words_.back() &= (uint64_t{1} << tail) - 1;
    }
  }
  /// @}

 private:
  static size_t NumWords(size_t size) { return (size + 63) / 64; }

  // The ForEachSetInRange walk over the words word_at(wi) yields; partial
  // first/last words are masked to [begin, end).
  template <typename WordAt, typename Fn>
  void WalkRange(size_t begin, size_t end, const WordAt& word_at,
                 Fn& fn) const {
    OSDP_DCHECK(begin <= end && end <= size_);
    if (begin >= end) return;
    const size_t first_word = begin >> 6;
    const size_t last_word = (end - 1) >> 6;
    for (size_t wi = first_word; wi <= last_word; ++wi) {
      uint64_t w = word_at(wi);
      if (wi == first_word && (begin & 63) != 0) {
        w &= ~uint64_t{0} << (begin & 63);
      }
      if (wi == last_word && (end & 63) != 0) {
        w &= (uint64_t{1} << (end & 63)) - 1;
      }
      while (w != 0) {
        const int bit = __builtin_ctzll(w);
        fn((wi << 6) + static_cast<size_t>(bit));
        w &= w - 1;
      }
    }
  }

  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace osdp

#endif  // OSDP_DATA_ROW_MASK_H_
