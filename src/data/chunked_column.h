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
//   * A chunk's cell vector reserves kChunkRows slots at construction and
//     NEVER reallocates afterwards. Cells never move once appended: a
//     string_view into any cell stays valid until the last column sharing
//     the chunk is destroyed.
//   * Copying a column copies the chunk-pointer vector, not the cells.
//     Full chunks are immutable forever, so sharing them is always safe.
//     The partial tail chunk may keep growing *in place* — but only under
//     its single writer (see below); a copy records its own row count and
//     reads just that prefix, so later in-place growth is invisible to it.
//
// Single-writer tail discipline: exactly one column instance — the one with
// owns_tail_ set — may extend the last chunk in place. A copy is born
// without ownership; if it is itself appended to, it first replaces its
// tail chunk with a private copy of the prefix it can see (the actual
// copy-on-write). Concurrent reads of a shared chunk's published prefix are
// race-free against the owner's in-place appends: appends touch only slots
// past every published prefix, and publication happens-before the readers
// via the SnapshotStore's atomic pointer swap.

#ifndef OSDP_DATA_CHUNKED_COLUMN_H_
#define OSDP_DATA_CHUNKED_COLUMN_H_

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace osdp {

/// Rows per chunk: power of two, multiple of the 64-row RowMask word.
inline constexpr size_t kChunkRowShift = 12;
inline constexpr size_t kChunkRows = size_t{1} << kChunkRowShift;  // 4096
inline constexpr size_t kChunkRowMask = kChunkRows - 1;

/// \brief One column of cells in shared fixed-size chunks.
///
/// Cheap to copy (chunk pointers only); the copy observes exactly the rows
/// present at copy time and is immune to later appends on the source.
template <typename T>
class ChunkedColumn {
 public:
  /// One chunk's storage. `cells` reserves kChunkRows at construction and
  /// never reallocates, so cell addresses are stable for the chunk's
  /// lifetime (Table's cell-reference lifetime contract rides on this).
  struct Chunk {
    Chunk() { cells.reserve(kChunkRows); }
    std::vector<T> cells;
  };
  using ChunkPtr = std::shared_ptr<Chunk>;

  ChunkedColumn() = default;

  ChunkedColumn(const ChunkedColumn& other)
      : chunks_(other.chunks_), size_(other.size_), owns_tail_(false) {}
  ChunkedColumn& operator=(const ChunkedColumn& other) {
    if (this != &other) {
      chunks_ = other.chunks_;
      size_ = other.size_;
      owns_tail_ = false;  // the source keeps the (single) write right
    }
    return *this;
  }
  ChunkedColumn(ChunkedColumn&& other) noexcept
      : chunks_(std::move(other.chunks_)),
        size_(other.size_),
        owns_tail_(other.owns_tail_) {
    other.chunks_.clear();
    other.size_ = 0;
    other.owns_tail_ = false;
  }
  ChunkedColumn& operator=(ChunkedColumn&& other) noexcept {
    if (this != &other) {
      chunks_ = std::move(other.chunks_);
      size_ = other.size_;
      owns_tail_ = other.owns_tail_;
      other.chunks_.clear();
      other.size_ = 0;
      other.owns_tail_ = false;
    }
    return *this;
  }

  /// Chunks a fully-built flat vector, moving every cell exactly once (the
  /// Table::FromColumns bulk-ingest path).
  static ChunkedColumn FromFlat(std::vector<T> flat) {
    ChunkedColumn col;
    const size_t n = flat.size();
    size_t done = 0;
    while (done < n) {
      auto chunk = std::make_shared<Chunk>();
      const size_t take = std::min(kChunkRows, n - done);
      chunk->cells.insert(chunk->cells.end(),
                          std::make_move_iterator(flat.begin() + done),
                          std::make_move_iterator(flat.begin() + done + take));
      col.chunks_.push_back(std::move(chunk));
      done += take;
    }
    col.size_ = n;
    col.owns_tail_ = true;
    return col;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Cell i. Works uniformly for full chunks and the tail because every
  /// non-last chunk is exactly full.
  const T& operator[](size_t i) const {
    OSDP_DCHECK(i < size_);
    return chunks_[i >> kChunkRowShift]->cells[i & kChunkRowMask];
  }

  /// Bounds-checked cell access.
  const T& at(size_t i) const {
    OSDP_CHECK(i < size_);
    return (*this)[i];
  }

  /// Appends one cell (copy-on-write on a shared tail).
  void push_back(T v) {
    WritableTail().cells.push_back(std::move(v));
    ++size_;
  }

  /// Appends `n` cells from `data` in chunk-sized bulk inserts.
  void AppendRange(const T* data, size_t n) {
    size_t done = 0;
    while (done < n) {
      Chunk& tail = WritableTail();
      const size_t take =
          std::min(kChunkRows - (size_ & kChunkRowMask), n - done);
      tail.cells.insert(tail.cells.end(), data + done, data + done + take);
      size_ += take;
      done += take;
    }
  }

  /// \brief Appends every cell of `other` (which may be *this).
  ///
  /// When this column is chunk-aligned (size a multiple of kChunkRows), the
  /// append shares `other`'s chunks outright — O(#chunks) pointer copies,
  /// zero cell copies; `other`'s partial tail is adopted read-only and
  /// copy-on-written only if this column is appended to again. Misaligned
  /// appends repack cell-by-cell (O(other.size()) — the batch, never the
  /// accumulated column).
  void Append(const ChunkedColumn& other) {
    if (&other == this) {
      // Snapshot the chunk list first (pointer copies only) so the element
      // source is stable while this column mutates.
      ChunkedColumn snapshot(*this);
      Append(snapshot);
      return;
    }
    if ((size_ & kChunkRowMask) == 0) {
      chunks_.insert(chunks_.end(), other.chunks_.begin(), other.chunks_.end());
      size_ += other.size_;
      owns_tail_ = false;  // the adopted tail may have another writer
      return;
    }
    other.ForEachSpan(0, other.size_,
                      [&](const T* data, size_t /*begin*/, size_t len) {
                        AppendRange(data, len);
                      });
  }

  /// \name Chunk geometry (scan layers and sharing tests).
  /// @{
  size_t num_chunks() const { return chunks_.size(); }
  /// Chunks [0, num_full_chunks()) are full, hence sealed: immutable for
  /// the lifetime of every column sharing them.
  size_t num_full_chunks() const { return size_ >> kChunkRowShift; }
  /// Identity of chunk `ci` — pointer equality across two columns proves
  /// the chunk is shared, not copied (the no-copy publish assertions).
  const void* ChunkIdentity(size_t ci) const {
    OSDP_CHECK(ci < chunks_.size());
    return chunks_[ci].get();
  }
  /// @}

  /// \brief Calls fn(data, begin, len) for each maximal contiguous span of
  /// [begin, end): `data` points at the cell with global index `begin`, and
  /// the span never crosses a chunk boundary. Spans after the first start
  /// at chunk boundaries, so a caller that enters at a 64-aligned `begin`
  /// sees only 64-aligned span starts (chunk size is a multiple of 64).
  template <typename Fn>
  void ForEachSpan(size_t begin, size_t end, Fn&& fn) const {
    OSDP_DCHECK(begin <= end && end <= size_);
    size_t pos = begin;
    while (pos < end) {
      const size_t ci = pos >> kChunkRowShift;
      const size_t chunk_begin = ci << kChunkRowShift;
      const size_t span_end = std::min(end, chunk_begin + kChunkRows);
      fn(chunks_[ci]->cells.data() + (pos - chunk_begin), pos, span_end - pos);
      pos = span_end;
    }
  }

  /// Materializes the column as one flat vector (tests, bridges).
  std::vector<T> ToVector() const {
    std::vector<T> out;
    out.reserve(size_);
    ForEachSpan(0, size_, [&](const T* data, size_t /*begin*/, size_t len) {
      out.insert(out.end(), data, data + len);
    });
    return out;
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
  bool operator==(const std::vector<T>& flat) const {
    if (size_ != flat.size()) return false;
    for (size_t i = 0; i < size_; ++i) {
      if (!((*this)[i] == flat[i])) return false;
    }
    return true;
  }
  bool operator!=(const std::vector<T>& flat) const {
    return !(*this == flat);
  }

  /// Chunk-crossing forward iterator (range-for support).
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    const_iterator(const ChunkedColumn* col, size_t i) : col_(col), i_(i) {}
    reference operator*() const { return (*col_)[i_]; }
    pointer operator->() const { return &(*col_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator tmp = *this;
      ++i_;
      return tmp;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }

   private:
    const ChunkedColumn* col_;
    size_t i_;
  };
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

 private:
  /// The chunk the next append goes into: creates a fresh chunk at an
  /// aligned size, and copy-on-writes a shared partial tail (private copy
  /// of the visible prefix) before the first write through a non-owner.
  Chunk& WritableTail() {
    const size_t local = size_ & kChunkRowMask;
    if (local == 0) {
      chunks_.push_back(std::make_shared<Chunk>());
      owns_tail_ = true;
    } else if (!owns_tail_) {
      auto fresh = std::make_shared<Chunk>();
      const std::vector<T>& old = chunks_.back()->cells;
      fresh->cells.assign(old.begin(), old.begin() + local);
      chunks_.back() = std::move(fresh);
      owns_tail_ = true;
    }
    OSDP_DCHECK(chunks_.back()->cells.size() == local ||
                (local == 0 && chunks_.back()->cells.empty()));
    return *chunks_.back();
  }

  std::vector<ChunkPtr> chunks_;  // all full except possibly the last
  size_t size_ = 0;               // authoritative row count for *this* view
  bool owns_tail_ = false;        // may this instance extend the last chunk?
};

}  // namespace osdp

#endif  // OSDP_DATA_CHUNKED_COLUMN_H_
