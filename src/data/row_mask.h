// RowMask: a packed per-row bitmap, the currency of the vectorized scan layer.
//
// Every batch operation in the library — policy classification, WHERE-clause
// filtering, masked histogram construction — produces or consumes a RowMask.
// Bits are stored 64 per word so that logical combination (AND/OR/NOT) runs
// word-at-a-time, counting runs on the word popcount kernels of
// src/data/bit_kernels.h (hardware popcount where the CPU has it), and
// iteration over the selected rows runs on count-trailing-zeros rather than
// a per-row branch.
//
// The words live in 64-word blocks, one per kChunkRows-row column chunk, so
// a mask can share its storage the way a ChunkedColumn does
// (docs/storage.md, "The prefix contract"):
//
//   * Sealed blocks — every block but a partial last one — hang off a
//     ChunkSpine shared by every copy; the partial last block is held by
//     the mask itself. Copying a mask is O(1).
//   * Once a copy can see a block, the block is never written again. A
//     write into a shared block first copies that one block (512 bytes)
//     into a slot no copy reads: the mask's own tail, or a spine slot at or
//     past the spine's published watermark. Blocks are reference-counted
//     for this, and a mask that may not write its spine clones it first.
//   * So a grown mask (TableBuilder's, a MaskCache extension) writes only
//     its old partial block and new blocks, and shares every sealed one.

#ifndef OSDP_DATA_ROW_MASK_H_
#define OSDP_DATA_ROW_MASK_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/data/chunk_spine.h"

namespace osdp {

/// Words per mask block: one block covers one kChunkRows-row chunk.
inline constexpr size_t kBlockWords = kChunkRows / 64;  // 64

namespace row_mask_internal {

// The words of `size` blocks allocated together, 64-byte aligned and
// contiguous, with each block's reference count kept beside the header
// rather than in the block: counting references touches no words. The
// allocation is freed when the last of its blocks dies. A block written
// alone is a run of one; RowMask::PrepareWrite makes a whole range
// writable with one run.
class BlockRun {
 public:
  // A run whose blocks each have one reference; their words are
  // uninitialized.
  static BlockRun* Allocate(size_t size);

  uint64_t* words(size_t i) const { return words_ + i * kBlockWords; }
  std::atomic<uint32_t>& refs(size_t i) const {
    return reinterpret_cast<std::atomic<uint32_t>*>(
        const_cast<BlockRun*>(this + 1))[i];
  }
  // Heap bytes the run holds, whichever of its blocks are alive.
  size_t bytes() const { return bytes_; }

  // Drops a reference to block i, freeing the run with its last block.
  void Unref(size_t i) {
    // The only holder may skip the decrement: nobody else can reach the
    // count. Otherwise acq_rel: this holder's reads of the words happen
    // before a writer that then finds itself the only holder
    // (BlockRef::unique) writes them.
    if ((refs(i).load(std::memory_order_acquire) == 1 ||
         refs(i).fetch_sub(1, std::memory_order_acq_rel) == 1) &&
        live_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      Free(this);
    }
  }

 private:
  BlockRun() = default;
  static void Free(BlockRun* run);

  std::atomic<uint32_t> live_{0};  // blocks with a reference
  uint64_t* words_ = nullptr;
  size_t bytes_ = 0;
};
static_assert(sizeof(BlockRun) % alignof(std::atomic<uint32_t>) == 0,
              "reference counts follow the run header");

// A counted reference to one block of a run. A null reference reads as
// all-zero words, so a fresh or grown mask allocates a block only when it
// is written.
class BlockRef {
 public:
  BlockRef() = default;
  BlockRef(BlockRun* run, size_t index) : run_(run), index_(index) {}
  BlockRef(const BlockRef& other) noexcept
      : run_(other.run_), index_(other.index_) {
    if (run_ != nullptr) {
      run_->refs(index_).fetch_add(1, std::memory_order_relaxed);
    }
  }
  BlockRef(BlockRef&& other) noexcept
      : run_(std::exchange(other.run_, nullptr)), index_(other.index_) {}
  BlockRef& operator=(BlockRef other) noexcept {
    std::swap(run_, other.run_);
    std::swap(index_, other.index_);
    return *this;
  }
  ~BlockRef() {
    if (run_ != nullptr) run_->Unref(index_);
  }

  bool null() const { return run_ == nullptr; }
  const BlockRun* run() const { return run_; }
  const uint64_t* words() const {
    return run_ != nullptr ? run_->words(index_) : kZeroWords;
  }
  /// True iff this is the block's only reference (a null one is not).
  bool unique() const {
    return run_ != nullptr &&
           run_->refs(index_).load(std::memory_order_acquire) == 1;
  }
  /// The words, writable: the block is first copied (or, when null,
  /// allocated zeroed) into a run of its own unless this is its only
  /// reference.
  uint64_t* MutableWords() {
    if (!unique()) CopyIntoOwnRun();
    return run_->words(index_);
  }

  const void* identity() const { return run_ != nullptr ? words() : nullptr; }

 private:
  void CopyIntoOwnRun();

  static constexpr uint64_t kZeroWords[kBlockWords] = {};
  BlockRun* run_ = nullptr;
  size_t index_ = 0;
};

}  // namespace row_mask_internal

/// \brief Fixed-size packed bitmap over row indices [0, size).
///
/// Word layout: bit i lives in block i / kChunkRows, word (i / 64) %
/// kBlockWords, bit i % 64. Bits past `size()` are kept zero (every mutator
/// restores this invariant), so Count() and word-wise combination need no
/// special casing.
class RowMask {
 public:
  RowMask() = default;

  /// Mask over `size` rows, all bits set to `value`.
  explicit RowMask(size_t size, bool value = false);

  /// Copies share every block: O(1). The copy records in the shared spine
  /// which slots it reads, so no writer rewrites them.
  RowMask(const RowMask& other)
      : size_(other.size_), spine_(other.spine_), tail_(other.tail_) {
    if (spine_ != nullptr) spine_->Publish(num_sealed());
  }
  RowMask& operator=(const RowMask& other) {
    if (this != &other) *this = RowMask(other);
    return *this;
  }
  RowMask(RowMask&& other) noexcept
      : size_(std::exchange(other.size_, 0)),
        spine_(std::move(other.spine_)),
        tail_(std::move(other.tail_)),
        owns_spine_(std::exchange(other.owns_spine_, false)) {}
  RowMask& operator=(RowMask&& other) noexcept {
    if (this != &other) {
      size_ = std::exchange(other.size_, 0);
      spine_ = std::move(other.spine_);
      tail_ = std::move(other.tail_);
      owns_spine_ = std::exchange(other.owns_spine_, false);
    }
    return *this;
  }

  /// Builds from a bool vector (bridge from the legacy mask representation).
  static RowMask FromBools(const std::vector<bool>& bools);

  /// Number of rows covered.
  size_t size() const { return size_; }

  /// Bit of row i.
  bool Test(size_t i) const {
    OSDP_DCHECK(i < size_);
    return (block(i >> kChunkRowShift)[(i >> 6) & (kBlockWords - 1)] >>
            (i & 63)) & 1;
  }

  /// Sets bit of row i to `value`.
  void Set(size_t i, bool value = true) {
    OSDP_DCHECK(i < size_);
    uint64_t& word =
        MutableBlock(i >> kChunkRowShift)[(i >> 6) & (kBlockWords - 1)];
    const uint64_t bit = uint64_t{1} << (i & 63);
    word = value ? word | bit : word & ~bit;
  }

  /// \brief Grows the mask to cover `new_size` rows (>= size()); existing
  /// bits are preserved and the new bits are zero. This is the streaming
  /// ingest primitive: TableBuilder extends the policy mask as batches
  /// arrive, then evaluates only the appended rows. No word is copied: the
  /// old partial block becomes a sealed one, and new blocks read as zero
  /// until written.
  void Resize(size_t new_size);

  /// Number of set bits.
  size_t Count() const { return CountInRange(0, size_); }

  /// Number of set bits in rows [begin, end); either edge may fall mid-word.
  size_t CountInRange(size_t begin, size_t end) const;

  /// |this ∧ other| over rows [begin, end) (equal sizes, checked), ANDed
  /// word by word without writing either mask.
  size_t AndCountInRange(const RowMask& other, size_t begin,
                         size_t end) const;

  /// \name In-place logical combination; operands must cover equal row counts.
  /// @{
  RowMask& AndWith(const RowMask& other) {
    OSDP_CHECK(other.size_ == size_);
    PrepareWrite(0, size_);
    AndWithInRange(other, 0, size_);
    return *this;
  }
  /// AndWith over the words of rows [begin, end) only: `begin` a multiple
  /// of 64, `end` one too or size(). After PrepareWrite over a range,
  /// concurrent calls on disjoint word ranges of it are race-free.
  void AndWithInRange(const RowMask& other, size_t begin, size_t end);
  RowMask& AndNotWith(const RowMask& other);
  /// Complements every bit.
  RowMask& FlipAll();
  /// @}

  /// True iff any bit is set in both masks; short-circuits on the first
  /// overlapping word (no copies, no full popcount).
  bool Intersects(const RowMask& other) const;

  /// True iff every set bit of this mask is also set in `other`.
  bool IsSubsetOf(const RowMask& other) const;

  /// Calls fn(row) for every set bit, in ascending row order. Iteration cost
  /// is proportional to the number of set bits, not size().
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    ForEachSetInRange(0, size_, fn);
  }

  /// Calls fn(row) for every set bit in [begin, end), in ascending row
  /// order — ForEachSet restricted to a row range. Partial first/last words
  /// are handled, so the range need not be word-aligned. Concurrent calls on
  /// disjoint (or even overlapping) ranges of a const mask are safe: the
  /// traversal only reads.
  template <typename Fn>
  void ForEachSetInRange(size_t begin, size_t end, Fn&& fn) const {
    WalkRange(begin, end, fn, [this](size_t b) {
      const uint64_t* w = block(b);
      return [w](size_t i) { return w[i]; };
    });
  }

  /// ForEachSetInRange over the rows set in both this mask and `also`
  /// (equal sizes). The AND happens word by word inside the walk, so the
  /// intersection is never materialized; the rows visited, and their order,
  /// are exactly those of a walk over a copy ANDed with `also`.
  template <typename Fn>
  void ForEachSetInRange(const RowMask& also, size_t begin, size_t end,
                         Fn&& fn) const {
    OSDP_CHECK(also.size_ == size_);
    WalkRange(begin, end, fn, [this, &also](size_t b) {
      const uint64_t* w = block(b);
      const uint64_t* a = also.block(b);
      return [w, a](size_t i) { return w[i] & a[i]; };
    });
  }

  /// The set rows as an ascending index vector.
  std::vector<size_t> ToIndices() const;

  /// Bridge back to the legacy bool-vector representation.
  std::vector<bool> ToBools() const;

  bool operator==(const RowMask& other) const;

  /// \name Block access for word-level producers and kernels.
  /// @{
  size_t num_words() const { return (size_ + 63) / 64; }
  /// Blocks covering the mask: block b holds words [b, b + 1) * kBlockWords.
  size_t num_blocks() const { return NumChunks(size_); }
  /// Words of block b that lie inside the mask: kBlockWords except in a
  /// partial last block. The block's words past them read as zero.
  size_t block_words(size_t b) const {
    return std::min(kBlockWords, num_words() - b * kBlockWords);
  }
  /// Block b's words, read-only.
  const uint64_t* block(size_t b) const {
    OSDP_DCHECK(b < num_blocks());
    return b < num_sealed() ? (*spine_)[b].words() : tail_.words();
  }
  /// Block b's words, writable. A block some other mask can see is first
  /// copied into a slot only this mask reads (cloning the spine if this
  /// mask may not write it). Not safe to call concurrently unless
  /// PrepareWrite covered the block.
  uint64_t* MutableBlock(size_t b) {
    OSDP_DCHECK(b < num_blocks());
    if (b < num_sealed()) WritableFrom(b);
    return slot(b).MutableWords();
  }
  /// Makes every block of rows [begin, end) writable now, serially and with
  /// one allocation for all the blocks that need a private copy, so that
  /// MutableBlock on them afterwards neither allocates nor touches the
  /// spine: shards may then write disjoint words of them concurrently.
  void PrepareWrite(size_t begin, size_t end);
  /// Identity of block b: equal across two masks iff they share it.
  const void* BlockIdentity(size_t b) const {
    OSDP_CHECK(b < num_blocks());
    return b < num_sealed() ? (*spine_)[b].identity() : tail_.identity();
  }
  /// Identity of the spine of sealed blocks (null when there are none).
  const void* SpineIdentity() const { return spine_.get(); }
  /// @}

  /// Heap bytes this mask keeps alive: its spine, and every block run it
  /// references, in full and once per stretch of consecutive blocks in it.
  /// Never less than the mask holds; more when it shares runs with other
  /// masks or holds only part of a run.
  size_t HeapBytes() const;

 private:
  using Slot = row_mask_internal::BlockRef;

  size_t num_sealed() const { return size_ >> kChunkRowShift; }
  uint64_t word(size_t wi) const {
    return block(wi / kBlockWords)[wi % kBlockWords];
  }
  // The slot of block b, for writing: the caller has made the spine
  // writable for it when b is sealed.
  Slot& slot(size_t b) { return b < num_sealed() ? (*spine_)[b] : tail_; }
  // Makes the spine writable for sealed blocks from `first` on: a mask that
  // is not the spine's writer, or whose copies may read block `first`,
  // takes a private spine.
  void WritableFrom(size_t first) {
    if (!owns_spine_ || first < spine_->published()) {
      TakeSpine(spine_->capacity());
    }
  }
  // Replaces the spine by a private one of `capacity` slots holding the
  // sealed blocks; this mask becomes its writer. The blocks stay shared
  // with the old spine until written.
  void TakeSpine(size_t capacity);
  // Zeroes the bits past size() in the last word.
  void ClearTail();

  // True iff pred(a, b) holds for some word pair of this mask and `other`.
  template <typename Pred>
  bool AnyWord(const RowMask& other, const Pred& pred) const;

  // The ForEachSetInRange walk: block_words_at(b) yields the word reader
  // for block b, and partial first/last words are masked to [begin, end).
  template <typename Fn, typename BlockWordsAt>
  void WalkRange(size_t begin, size_t end, Fn& fn,
                 const BlockWordsAt& block_words_at) const {
    OSDP_DCHECK(begin <= end && end <= size_);
    if (begin >= end) return;
    const size_t first_word = begin >> 6;
    const size_t last_word = (end - 1) >> 6;
    for (size_t b = first_word / kBlockWords; b <= last_word / kBlockWords;
         ++b) {
      const auto word_at = block_words_at(b);
      const size_t base = b * kBlockWords;
      const size_t lo = std::max(first_word, base) - base;
      const size_t hi = std::min(last_word + 1, base + kBlockWords) - base;
      for (size_t i = lo; i < hi; ++i) {
        const size_t wi = base + i;
        uint64_t w = word_at(i);
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
  }

  size_t size_ = 0;
  // Sealed blocks [0, size_ >> kChunkRowShift); null when there are none.
  ChunkSpinePtr<Slot> spine_;
  // The partial last block; null (reading as zeros) when size_ is
  // chunk-aligned or the block was never written.
  Slot tail_;
  // May this mask write spine slots at or past the published watermark?
  bool owns_spine_ = false;
};

}  // namespace osdp

#endif  // OSDP_DATA_ROW_MASK_H_
