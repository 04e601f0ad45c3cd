// ChunkSpine: the grow-only array of per-chunk pointers that every
// generation of a column or a mask shares (docs/storage.md, "The prefix
// contract").
//
// A ChunkedColumn keeps one slot per 4096-row chunk, and a RowMask one slot
// per 4096-row block of words. Copying either copies a reference to the
// spine plus the copy's own size, so a copy costs O(1) however many chunks
// there are. The rules that make the sharing safe:
//
//   * Single writer. Exactly one instance — the one whose write right is
//     set, i.e. the TableBuilder's — may write slots, and only slots past
//     every size any copy has recorded. A copy is born without the right; it
//     clones the spine (CloneSpine) before its first slot write.
//   * Slots never move. A spine allocates its capacity once and never
//     reallocates, so readers of slots [0, n) never race the writer filling
//     slot n. A full spine is replaced by one of twice the capacity; older
//     generations keep the spine they hold.
//   * The published watermark. RowMask rewrites slots (a copy-on-write block
//     goes into the slot it replaces), so a mask copy records, in the spine
//     itself, how many slots it reads (Publish). The writer rewrites only
//     slots at or past published(). A column writer never rewrites a slot,
//     so columns leave the watermark at zero.

#ifndef OSDP_DATA_CHUNK_SPINE_H_
#define OSDP_DATA_CHUNK_SPINE_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

namespace osdp {

/// Rows per chunk: power of two, multiple of the 64-row RowMask word.
inline constexpr size_t kChunkRowShift = 12;
inline constexpr size_t kChunkRows = size_t{1} << kChunkRowShift;  // 4096
inline constexpr size_t kChunkRowMask = kChunkRows - 1;

/// Chunks of a `rows`-row column, the last one possibly partial.
inline constexpr size_t NumChunks(size_t rows) {
  return (rows + kChunkRowMask) >> kChunkRowShift;
}

/// \brief A fixed-capacity array of slots shared by every copy of one
/// column or mask. See the file comment for who may write which slot.
template <typename Slot>
class ChunkSpine {
 public:
  explicit ChunkSpine(size_t capacity) : slots_(capacity) {}

  size_t capacity() const { return slots_.size(); }
  const Slot& operator[](size_t i) const { return slots_[i]; }
  Slot& operator[](size_t i) { return slots_[i]; }

  /// Records that some copy reads slots [0, n): they are never rewritten.
  /// Callable on a const spine from any thread.
  void Publish(size_t n) const {
    size_t seen = published_.load(std::memory_order_acquire);
    while (seen < n && !published_.compare_exchange_weak(
                           seen, n, std::memory_order_acq_rel)) {
    }
  }
  /// Slots below this index may be read by a copy.
  size_t published() const {
    return published_.load(std::memory_order_acquire);
  }

 private:
  std::vector<Slot> slots_;
  mutable std::atomic<size_t> published_{0};
};

template <typename Slot>
using ChunkSpinePtr = std::shared_ptr<ChunkSpine<Slot>>;

/// The capacity a writer's spine gets when it must grow to hold `needed`
/// slots: twice that, so a writer replaces its spine O(log n) times in all
/// and each slot is copied O(1) times amortized.
inline size_t GrownSpineCapacity(size_t needed) {
  return std::max<size_t>(8, 2 * needed);
}

/// A fresh spine of `capacity` slots holding copies of `from`'s first `n`
/// slots (none when `from` is null). The new spine is private to its
/// caller: nothing is published in it.
template <typename Slot>
ChunkSpinePtr<Slot> CloneSpine(const ChunkSpine<Slot>* from, size_t n,
                               size_t capacity) {
  auto spine = std::make_shared<ChunkSpine<Slot>>(std::max(n, capacity));
  for (size_t i = 0; i < n; ++i) (*spine)[i] = (*from)[i];
  return spine;
}

}  // namespace osdp

#endif  // OSDP_DATA_CHUNK_SPINE_H_
