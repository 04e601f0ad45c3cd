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
//   * The chunk pointers live in a ChunkSpine (src/data/chunk_spine.h)
//     shared by every copy, so copying a column is O(1): a reference to the
//     spine plus the copy's own row count. Full chunks are immutable
//     forever. The partial tail chunk may keep growing *in place*, and the
//     spine may gain slots past it — but only under the single writer (see
//     below); a copy reads just the prefix its row count covers, so later
//     growth is invisible to it.
//
// Single-writer tail discipline: exactly one column instance — the one with
// owns_tail_ set — may extend the last chunk in place and write spine slots
// past its own chunk count. A copy is born without ownership; if it is
// itself appended to, it first clones the spine and replaces its tail chunk
// with a private copy of the prefix it can see (the actual copy-on-write).
// Concurrent reads of a shared chunk's published prefix are race-free
// against the owner's in-place appends: appends touch only cells and slots
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
#include "src/data/chunk_spine.h"

namespace osdp {

/// \brief One column of cells in shared fixed-size chunks.
///
/// Copying is O(1) (one spine reference); the copy observes exactly the rows
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
      : spine_(other.spine_), size_(other.size_), owns_tail_(false) {}
  ChunkedColumn& operator=(const ChunkedColumn& other) {
    if (this != &other) {
      spine_ = other.spine_;
      size_ = other.size_;
      owns_tail_ = false;  // the source keeps the (single) write right
    }
    return *this;
  }
  ChunkedColumn(ChunkedColumn&& other) noexcept
      : spine_(std::move(other.spine_)),
        size_(std::exchange(other.size_, 0)),
        owns_tail_(std::exchange(other.owns_tail_, false)) {}
  ChunkedColumn& operator=(ChunkedColumn&& other) noexcept {
    if (this != &other) {
      spine_ = std::move(other.spine_);
      size_ = std::exchange(other.size_, 0);
      owns_tail_ = std::exchange(other.owns_tail_, false);
    }
    return *this;
  }

  /// Chunks a fully-built flat vector, moving every cell exactly once (the
  /// Table::FromColumns bulk-ingest path).
  static ChunkedColumn FromFlat(std::vector<T> flat) {
    ChunkedColumn col;
    const size_t n = flat.size();
    col.spine_ = CloneSpine<ChunkPtr>(nullptr, 0, NumChunks(n));
    for (size_t done = 0; done < n;) {
      auto chunk = std::make_shared<Chunk>();
      const size_t take = std::min(kChunkRows, n - done);
      chunk->cells.insert(chunk->cells.end(),
                          std::make_move_iterator(flat.begin() + done),
                          std::make_move_iterator(flat.begin() + done + take));
      (*col.spine_)[done >> kChunkRowShift] = std::move(chunk);
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
    return (*spine_)[i >> kChunkRowShift]->cells[i & kChunkRowMask];
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
  /// append shares `other`'s chunks outright — O(other's chunks) pointer
  /// copies, zero cell copies; `other`'s partial tail is adopted read-only,
  /// so the next append through this column clones the spine and
  /// copy-on-writes that tail. Misaligned appends repack cell-by-cell
  /// (O(other.size()) — the batch, never the accumulated column).
  void Append(const ChunkedColumn& other) {
    if (other.size_ == 0) return;
    if (&other == this) {
      // Copy first (one spine reference) so the element source is stable
      // while this column mutates.
      ChunkedColumn snapshot(*this);
      Append(snapshot);
      return;
    }
    if ((size_ & kChunkRowMask) == 0) {
      const size_t first = num_chunks();
      const size_t adopted = other.num_chunks();
      ReserveSlots(first + adopted);
      for (size_t ci = 0; ci < adopted; ++ci) {
        (*spine_)[first + ci] = (*other.spine_)[ci];
      }
      size_ += other.size_;
      // A partial adopted tail may have another writer.
      owns_tail_ = (size_ & kChunkRowMask) == 0;
      return;
    }
    other.ForEachSpan(0, other.size_,
                      [&](const T* data, size_t /*begin*/, size_t len) {
                        AppendRange(data, len);
                      });
  }

  /// \name Chunk geometry (scan layers and sharing tests).
  /// @{
  size_t num_chunks() const { return NumChunks(size_); }
  /// Chunks [0, num_full_chunks()) are full, hence sealed: immutable for
  /// the lifetime of every column sharing them.
  size_t num_full_chunks() const { return size_ >> kChunkRowShift; }
  /// Identity of chunk `ci` — pointer equality across two columns proves
  /// the chunk is shared, not copied (the no-copy publish assertions).
  const void* ChunkIdentity(size_t ci) const {
    OSDP_CHECK(ci < num_chunks());
    return (*spine_)[ci].get();
  }
  /// Identity of the spine: equal across two columns iff they share it.
  const void* SpineIdentity() const { return spine_.get(); }
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
      fn((*spine_)[ci]->cells.data() + (pos - chunk_begin), pos,
         span_end - pos);
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
  /// Makes slots [0, needed) writable by this column: a non-owner clones
  /// the spine (it may not write the shared one), and a full spine is
  /// replaced by one of twice the capacity. Either way the clone holds the
  /// visible chunks, and this column becomes the writer.
  void ReserveSlots(size_t needed) {
    if (owns_tail_ && spine_ != nullptr && needed <= spine_->capacity()) {
      return;
    }
    spine_ = CloneSpine<ChunkPtr>(spine_.get(), num_chunks(),
                                  GrownSpineCapacity(needed));
    owns_tail_ = true;
  }

  /// The chunk the next append goes into: creates a fresh chunk at an
  /// aligned size, and copy-on-writes a shared partial tail (private copy
  /// of the visible prefix) before the first write through a non-owner.
  Chunk& WritableTail() {
    const size_t local = size_ & kChunkRowMask;
    const size_t ci = size_ >> kChunkRowShift;
    if (local == 0) {
      ReserveSlots(ci + 1);
      (*spine_)[ci] = std::make_shared<Chunk>();
    } else if (!owns_tail_) {
      ReserveSlots(ci + 1);
      auto fresh = std::make_shared<Chunk>();
      const std::vector<T>& old = (*spine_)[ci]->cells;
      fresh->cells.assign(old.begin(), old.begin() + local);
      (*spine_)[ci] = std::move(fresh);
    }
    Chunk& tail = *(*spine_)[ci];
    OSDP_DCHECK(tail.cells.size() == local);
    return tail;
  }

  ChunkSpinePtr<ChunkPtr> spine_;  // chunks: all full except possibly the last
  size_t size_ = 0;                // authoritative row count for *this* view
  bool owns_tail_ = false;         // may this instance write past size_?
};

}  // namespace osdp

#endif  // OSDP_DATA_CHUNKED_COLUMN_H_
