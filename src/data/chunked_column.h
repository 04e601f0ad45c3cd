// ChunkedColumn: one column's cells stored as a sequence of fixed-size
// chunks shared by pointer — the copy-on-write substrate that lets a
// snapshot publish copy no cell (docs/storage.md).
//
// Layout invariants, which everything downstream leans on:
//
//   * A chunk holds up to kChunkRows cells. Every chunk except the last is
//     exactly full, so cell i lives at chunk (i >> kChunkRowShift), slot
//     (i & kChunkRowMask) — indexing needs no per-chunk offset table.
//   * kChunkRows is a power of two and a multiple of 64, so chunk
//     boundaries are always RowMask word boundaries: a scan split at chunk
//     edges packs mask bits exactly like the serial whole-table scan.
//   * Full chunks are sealed: they hang off a ChunkSpine
//     (src/data/chunk_spine.h) shared by every copy, and are immutable
//     forever. The partial last chunk, the tail, is held by the column
//     itself, as raw cells. Copying a column is O(1): a reference to the
//     spine and to the tail, plus the copy's own row count.
//   * A chunk is sealed exactly once, when the writer fills its tail, and
//     its sealed form is chosen by the column's SealedChunkCodec: double and
//     string columns keep the full raw chunk itself, and int64 columns store
//     it frame-of-reference encoded (the chunk minimum plus 8-, 16-, 32- or
//     64-bit offsets). Sealing writes a fresh spine slot, never one a copy
//     reads, and a copy that saw the chunk as its tail keeps reading that
//     raw tail.
//   * A raw chunk reserves kChunkRows slots at construction and NEVER
//     reallocates afterwards. Cells never move once appended: a string_view
//     into any double or string cell stays valid until the last column
//     sharing the chunk is destroyed.
//
// Single-writer discipline: exactly one column instance — the one with
// owns_tail_ set — may append to the tail in place, and one — the one with
// owns_spine_ set — may write spine slots past its own sealed count. A copy
// is born with neither right; before its first append it copies the prefix
// of the tail it can see, and before sealing it clones the spine (the
// actual copy-on-write). Concurrent reads of a shared tail's published
// prefix are race-free against the owner's in-place appends: appends touch
// only cells and slots past every published prefix, and publication
// happens-before the readers via the SnapshotStore's atomic pointer swap.

#ifndef OSDP_DATA_CHUNKED_COLUMN_H_
#define OSDP_DATA_CHUNKED_COLUMN_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "src/common/check.h"
#include "src/data/chunk_spine.h"

namespace osdp {

/// Raw cells of one chunk: every column's tail, and a sealed chunk of a
/// double or string column. `cells` reserves kChunkRows at construction and
/// never reallocates, so cell addresses are stable for the chunk's lifetime
/// (Table's cell-reference lifetime contract rides on this).
template <typename T>
struct RawChunk {
  RawChunk() { cells.reserve(kChunkRows); }
  std::vector<T> cells;
};

/// \brief Cells of an int64 chunk as frame-of-reference offsets: cell i is
/// base + offsets[i] in wrapping 64-bit arithmetic, and every offset is at
/// most `range`. ForEachSpan hands int64 cells to its callback as these.
///
/// A sealed chunk's base is its minimum and U the narrowest of uint8_t,
/// uint16_t, uint32_t and uint64_t that holds max − min. The raw tail reads
/// as base 0, U = uint64_t and range 2^64 − 1 (its cells reinterpreted).
template <typename U>
struct ForCells {
  using Offset = U;
  uint64_t base;
  uint64_t range;
  const U* offsets;
  int64_t operator[](size_t i) const {
    return static_cast<int64_t>(base + offsets[i]);
  }
};

/// \brief How a column stores a full chunk once it is sealed.
///
/// The default keeps the raw chunk itself: sealing moves the pointer into
/// the spine, so the chunk's identity and its cells' addresses survive it.
template <typename T>
struct SealedChunkCodec {
  using Sealed = RawChunk<T>;
  static std::shared_ptr<const Sealed> Seal(
      std::shared_ptr<RawChunk<T>> full) {
    return full;
  }
  static const T& Get(const RawChunk<T>& chunk, size_t i) {
    return chunk.cells[i];
  }
  /// Calls fn(cells) with the chunk's cells from slot `from` on.
  template <typename Fn>
  static void Visit(const RawChunk<T>& chunk, size_t from, Fn&& fn) {
    fn(chunk.cells.data() + from);
  }
};

/// A sealed int64 chunk, frame-of-reference encoded.
struct ForChunk {
  uint64_t base = 0;   // the chunk minimum, as uint64
  uint64_t range = 0;  // max − min
  std::variant<std::vector<uint8_t>, std::vector<uint16_t>,
               std::vector<uint32_t>, std::vector<uint64_t>>
      offsets;
};

/// Fills `out` with the encoding of kChunkRows int64 cells: base = their
/// minimum, and the offsets at the narrowest width that holds max − min.
/// Defined with the scan kernels (src/data/scan_kernels.cc), whose runtime
/// CPU dispatch it shares.
void EncodeForChunk(const int64_t* cells, ForChunk* out);

template <>
struct SealedChunkCodec<int64_t> {
  using Sealed = ForChunk;

  static std::shared_ptr<const ForChunk> Seal(
      std::shared_ptr<RawChunk<int64_t>> full) {
    OSDP_DCHECK(full->cells.size() == kChunkRows);
    auto chunk = std::make_shared<ForChunk>();
    EncodeForChunk(full->cells.data(), chunk.get());
    return chunk;
  }

  static int64_t Get(const ForChunk& chunk, size_t i) {
    return std::visit(
        [&](const auto& offsets) {
          return static_cast<int64_t>(chunk.base + offsets[i]);
        },
        chunk.offsets);
  }

  template <typename Fn>
  static void Visit(const ForChunk& chunk, size_t from, Fn&& fn) {
    std::visit(
        [&](const auto& offsets) {
          using U = typename std::decay_t<decltype(offsets)>::value_type;
          fn(ForCells<U>{chunk.base, chunk.range, offsets.data() + from});
        },
        chunk.offsets);
  }
  template <typename Fn>
  static void Visit(const RawChunk<int64_t>& chunk, size_t from, Fn&& fn) {
    // uint64_t may alias int64_t: they are the same type but for sign.
    fn(ForCells<uint64_t>{
        0, ~uint64_t{0},
        reinterpret_cast<const uint64_t*>(chunk.cells.data()) + from});
  }

};

/// \brief One column of cells in shared fixed-size chunks.
///
/// Copying is O(1) (a spine and a tail reference); the copy observes exactly
/// the rows present at copy time and is immune to later appends on the
/// source.
template <typename T>
class ChunkedColumn {
  using Codec = SealedChunkCodec<T>;
  using Tail = RawChunk<T>;
  using SealedPtr = std::shared_ptr<const typename Codec::Sealed>;

 public:
  /// What a cell read returns: a reference into the chunk for double and
  /// string columns, the decoded value for an int64 column.
  using CellRef = decltype(Codec::Get(
      std::declval<const typename Codec::Sealed&>(), 0));

  ChunkedColumn() = default;

  ChunkedColumn(const ChunkedColumn& other)
      : spine_(other.spine_), tail_(other.tail_), size_(other.size_) {}
  ChunkedColumn& operator=(const ChunkedColumn& other) {
    if (this != &other) *this = ChunkedColumn(other);
    return *this;
  }
  ChunkedColumn(ChunkedColumn&& other) noexcept
      : spine_(std::move(other.spine_)),
        tail_(std::move(other.tail_)),
        size_(std::exchange(other.size_, 0)),
        owns_spine_(std::exchange(other.owns_spine_, false)),
        owns_tail_(std::exchange(other.owns_tail_, false)) {}
  ChunkedColumn& operator=(ChunkedColumn&& other) noexcept {
    if (this != &other) {
      spine_ = std::move(other.spine_);
      tail_ = std::move(other.tail_);
      size_ = std::exchange(other.size_, 0);
      owns_spine_ = std::exchange(other.owns_spine_, false);
      owns_tail_ = std::exchange(other.owns_tail_, false);
    }
    return *this;
  }

  /// Chunks a fully-built flat vector, moving every cell exactly once (the
  /// Table::FromColumns bulk-ingest path); full chunks are sealed at once.
  static ChunkedColumn FromFlat(std::vector<T> flat) {
    ChunkedColumn col;
    col.AppendCells(std::make_move_iterator(flat.begin()), flat.size());
    return col;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Cell i. Every non-last chunk is exactly full, so the chunk is i's
  /// high bits and the slot its low bits.
  CellRef operator[](size_t i) const {
    OSDP_DCHECK(i < size_);
    const size_t ci = i >> kChunkRowShift;
    const size_t slot = i & kChunkRowMask;
    return ci < num_full_chunks() ? Codec::Get(*(*spine_)[ci], slot)
                                  : tail_->cells[slot];
  }

  /// Appends one cell (copy-on-write on a shared tail).
  void push_back(T v) {
    WritableTail().cells.push_back(std::move(v));
    ++size_;
    if ((size_ & kChunkRowMask) == 0) SealTail();
  }

  /// \brief Appends every cell of `other` (which may be *this).
  ///
  /// When this column is chunk-aligned (size a multiple of kChunkRows), the
  /// append shares `other`'s chunks outright — O(other's chunks) pointer
  /// copies, zero cell copies; `other`'s partial tail is adopted read-only,
  /// so the next append through this column copy-on-writes that tail.
  /// Misaligned appends repack cell-by-cell (O(other.size()) — the batch,
  /// never the accumulated column).
  void Append(const ChunkedColumn& other) {
    if (other.size_ == 0) return;
    if (&other == this) {
      // Copy first (O(1)) so the element source is stable while this column
      // mutates.
      ChunkedColumn snapshot(*this);
      Append(snapshot);
      return;
    }
    if ((size_ & kChunkRowMask) == 0) {
      const size_t first = num_full_chunks();
      const size_t adopted = other.num_full_chunks();
      if (adopted > 0) {
        ReserveSlots(first, first + adopted);
        for (size_t ci = 0; ci < adopted; ++ci) {
          (*spine_)[first + ci] = (*other.spine_)[ci];
        }
      }
      tail_ = other.tail_;
      owns_tail_ = false;  // a partial adopted tail may have another writer
      size_ += other.size_;
      return;
    }
    other.ForEachSpan(0, other.size_,
                      [&](const auto& cells, size_t /*begin*/, size_t len) {
                        AppendCells(cells, len);
                      });
  }

  /// \name Chunk geometry (scan layers and sharing tests).
  /// @{
  size_t num_chunks() const { return NumChunks(size_); }
  /// Chunks [0, num_full_chunks()) are full, hence sealed: immutable for
  /// the lifetime of every column sharing them.
  size_t num_full_chunks() const { return size_ >> kChunkRowShift; }
  /// Identity of chunk `ci` — pointer equality across two columns proves
  /// the chunk is shared, not copied (the no-copy publish assertions). An
  /// int64 chunk's identity changes once, when it is sealed.
  const void* ChunkIdentity(size_t ci) const {
    OSDP_CHECK(ci < num_chunks());
    if (ci < num_full_chunks()) return (*spine_)[ci].get();
    return tail_.get();
  }
  /// Identity of the spine of sealed chunks: equal across two columns iff
  /// they share it (null when there are none).
  const void* SpineIdentity() const { return spine_.get(); }
  /// @}

  /// \brief Calls fn(cells, begin, len) for each maximal contiguous span of
  /// [begin, end): `cells[i]` is the cell with global index `begin + i`, and
  /// the span never crosses a chunk boundary. `cells` is a `const T*` for
  /// double and string columns, and a ForCells<U> for an int64 column, with
  /// U the offset width of that chunk — so `fn` is a generic callable. Spans
  /// after the first start at chunk boundaries, so a caller that enters at a
  /// 64-aligned `begin` sees only 64-aligned span starts (chunk size is a
  /// multiple of 64).
  template <typename Fn>
  void ForEachSpan(size_t begin, size_t end, Fn&& fn) const {
    OSDP_DCHECK(begin <= end && end <= size_);
    size_t pos = begin;
    while (pos < end) {
      const size_t ci = pos >> kChunkRowShift;
      const size_t chunk_begin = ci << kChunkRowShift;
      const size_t span_end = std::min(end, chunk_begin + kChunkRows);
      const auto visit = [&](const auto& cells) {
        fn(cells, pos, span_end - pos);
      };
      if (ci < num_full_chunks()) {
        Codec::Visit(*(*spine_)[ci], pos - chunk_begin, visit);
      } else {
        Codec::Visit(*tail_, pos - chunk_begin, visit);
      }
      pos = span_end;
    }
  }

  bool operator==(const ChunkedColumn& other) const {
    if (size_ != other.size_) return false;
    for (size_t i = 0; i < size_; ++i) {
      if (!((*this)[i] == other[i])) return false;
    }
    return true;
  }
  bool operator!=(const ChunkedColumn& other) const {
    return !(*this == other);
  }

 private:
  /// Appends cells[0, n) (`cells` indexable: a pointer, a move iterator or
  /// a ForCells), a tail's worth at a time, sealing each tail it fills.
  template <typename Cells>
  void AppendCells(const Cells& cells, size_t n) {
    for (size_t done = 0; done < n;) {
      Tail& tail = WritableTail();
      const size_t take =
          std::min(kChunkRows - (size_ & kChunkRowMask), n - done);
      AppendTo(&tail.cells, cells, done, take);
      size_ += take;
      done += take;
      if ((size_ & kChunkRowMask) == 0) SealTail();
    }
  }

  /// Appends cells[from, from + n) to `out`: a range insert from a pointer
  /// or a move iterator, and a decode from an int64 chunk's offsets, which
  /// is a plain copy from a raw tail (base 0, 64-bit).
  template <typename It>
  static void AppendTo(std::vector<T>* out, const It& cells, size_t from,
                       size_t n) {
    out->insert(out->end(), cells + from, cells + from + n);
  }
  template <typename U>
  static void AppendTo(std::vector<int64_t>* out, const ForCells<U>& cells,
                       size_t from, size_t n) {
    if constexpr (std::is_same_v<U, uint64_t>) {
      if (cells.base == 0) {
        // int64_t may alias the uint64_t offsets: same type but for sign.
        const auto* raw = reinterpret_cast<const int64_t*>(cells.offsets);
        out->insert(out->end(), raw + from, raw + from + n);
        return;
      }
    }
    const size_t local = out->size();
    out->resize(local + n);
    for (size_t i = 0; i < n; ++i) (*out)[local + i] = cells[from + i];
  }

  /// Makes slots [live, needed) writable by this column, where slots
  /// [0, live) hold its sealed chunks: a non-owner clones the spine (it may
  /// not write the shared one), and a full spine is replaced by one of twice
  /// the capacity. Either way the clone holds the sealed chunks, and this
  /// column becomes the spine's writer.
  void ReserveSlots(size_t live, size_t needed) {
    if (owns_spine_ && spine_ != nullptr && needed <= spine_->capacity()) {
      return;
    }
    spine_ = CloneSpine<SealedPtr>(spine_.get(), live,
                                   GrownSpineCapacity(needed));
    owns_spine_ = true;
  }

  /// The tail the next append goes into: a fresh one at an aligned size,
  /// and a private copy of the visible prefix of a tail this column may not
  /// write.
  Tail& WritableTail() {
    const size_t local = size_ & kChunkRowMask;
    if (local == 0) {
      tail_ = std::make_shared<Tail>();
      owns_tail_ = true;
    } else if (!owns_tail_) {
      auto fresh = std::make_shared<Tail>();
      fresh->cells.assign(tail_->cells.begin(), tail_->cells.begin() + local);
      tail_ = std::move(fresh);
      owns_tail_ = true;
    }
    OSDP_DCHECK(tail_->cells.size() == local);
    return *tail_;
  }

  /// Seals the tail this column just filled into a fresh spine slot. A copy
  /// that saw the tail partial keeps reading it raw.
  void SealTail() {
    const size_t ci = num_full_chunks() - 1;
    ReserveSlots(ci, ci + 1);
    (*spine_)[ci] = Codec::Seal(std::move(tail_));  // leaves tail_ null
  }

  ChunkSpinePtr<SealedPtr> spine_;  // sealed chunks [0, num_full_chunks())
  std::shared_ptr<Tail> tail_;      // the partial last chunk, if any
  size_t size_ = 0;                 // authoritative row count for *this* view
  bool owns_spine_ = false;  // may this instance write slots past its own?
  bool owns_tail_ = false;   // may this instance append to tail_ in place?
};

}  // namespace osdp

#endif  // OSDP_DATA_CHUNKED_COLUMN_H_
