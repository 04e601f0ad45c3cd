#include "src/data/row_mask.h"

#include <algorithm>
#include <new>

#include "src/data/bit_kernels.h"

namespace osdp {

namespace row_mask_internal {

BlockRun* BlockRun::Allocate(size_t size) {
  OSDP_CHECK(size > 0);
  // The words start on a 64-byte boundary. Plain new, not aligned new: the
  // over-aligned allocator fragments the heap under churn.
  constexpr size_t kAlign = 64;
  const size_t header = sizeof(BlockRun) + size * sizeof(std::atomic<uint32_t>);
  const size_t bytes =
      header + kAlign - 1 + size * kBlockWords * sizeof(uint64_t);
  char* memory = static_cast<char*>(::operator new(bytes));
  BlockRun* run = new (memory) BlockRun;
  run->live_.store(static_cast<uint32_t>(size), std::memory_order_relaxed);
  const uintptr_t words = reinterpret_cast<uintptr_t>(memory + header);
  run->words_ = reinterpret_cast<uint64_t*>((words + kAlign - 1) & ~(kAlign - 1));
  run->bytes_ = bytes;
  for (size_t i = 0; i < size; ++i) new (&run->refs(i)) std::atomic<uint32_t>(1);
  return run;
}

void BlockRun::Free(BlockRun* run) {
  // The counts and words are trivially destructible.
  run->~BlockRun();
  ::operator delete(run);
}

void BlockRef::CopyIntoOwnRun() {
  BlockRun* run = BlockRun::Allocate(1);
  std::copy_n(words(), kBlockWords, run->words(0));
  *this = BlockRef(run, 0);
}

}  // namespace row_mask_internal

namespace {

// Calls fn(b, lo, hi) for each block b overlapping words [word_lo,
// word_hi), with [lo, hi) the block-local word range.
template <typename Fn>
void ForEachBlockSpan(size_t word_lo, size_t word_hi, const Fn& fn) {
  while (word_lo < word_hi) {
    const size_t b = word_lo / kBlockWords;
    const size_t stop = std::min(word_hi, (b + 1) * kBlockWords);
    fn(b, word_lo - b * kBlockWords, stop - b * kBlockWords);
    word_lo = stop;
  }
}

// Bits in rows [begin, end): whole-word counts over the block spans, less
// the bits of a partial first or last word outside the range.
// span_count(b, lo, hi) counts block-local words [lo, hi) of block b;
// word_at(wi) yields the counted word wi.
template <typename SpanCount, typename WordAt>
size_t CountRange(size_t begin, size_t end, const SpanCount& span_count,
                  const WordAt& word_at) {
  if (begin == end) return 0;
  const size_t wlo = begin >> 6;
  const size_t whi = (end + 63) >> 6;
  size_t n = 0;
  ForEachBlockSpan(wlo, whi, [&](size_t b, size_t lo, size_t hi) {
    n += span_count(b, lo, hi);
  });
  if ((begin & 63) != 0) {
    const uint64_t w = word_at(wlo) & ((uint64_t{1} << (begin & 63)) - 1);
    n -= PopcountWords(&w, 0, 1);
  }
  if ((end & 63) != 0) {
    const uint64_t w = word_at(whi - 1) & (~uint64_t{0} << (end & 63));
    n -= PopcountWords(&w, 0, 1);
  }
  return n;
}

}  // namespace

RowMask::RowMask(size_t size, bool value) : size_(size) {
  if (num_sealed() > 0) {
    spine_ = CloneSpine<Slot>(nullptr, 0, num_sealed());
    owns_spine_ = true;
  }
  if (!value) return;
  PrepareWrite(0, size);
  for (size_t b = 0; b < num_blocks(); ++b) {
    std::fill_n(MutableBlock(b), block_words(b), ~uint64_t{0});
  }
  ClearTail();
}

RowMask RowMask::FromBools(const std::vector<bool>& bools) {
  RowMask m(bools.size());
  for (size_t i = 0; i < bools.size(); ++i) {
    if (bools[i]) m.Set(i);
  }
  return m;
}

void RowMask::Resize(size_t new_size) {
  OSDP_CHECK(new_size >= size_);
  const size_t sealed = num_sealed();
  const size_t new_sealed = new_size >> kChunkRowShift;
  if (new_sealed > sealed) {
    // The writer appends slots past every copy's, growing the spine when it
    // is full; any other mask first takes a private spine.
    if (!owns_spine_ || new_sealed > spine_->capacity()) {
      TakeSpine(GrownSpineCapacity(new_sealed));
    }
    (*spine_)[sealed] = std::move(tail_);
    tail_ = Slot();
  }
  // Bits past the old size() were kept zero by the class invariant, so
  // growing needs no bit surgery.
  size_ = new_size;
}

size_t RowMask::CountInRange(size_t begin, size_t end) const {
  OSDP_CHECK(begin <= end && end <= size_);
  return CountRange(
      begin, end,
      [this](size_t b, size_t lo, size_t hi) {
        return PopcountWords(block(b), lo, hi);
      },
      [this](size_t wi) { return word(wi); });
}

size_t RowMask::AndCountInRange(const RowMask& other, size_t begin,
                                size_t end) const {
  OSDP_CHECK(other.size_ == size_);
  OSDP_CHECK(begin <= end && end <= size_);
  return CountRange(
      begin, end,
      [this, &other](size_t b, size_t lo, size_t hi) {
        return AndPopcountWords(block(b), other.block(b), lo, hi);
      },
      [this, &other](size_t wi) { return word(wi) & other.word(wi); });
}

void RowMask::AndWithInRange(const RowMask& other, size_t begin,
                             size_t end) {
  OSDP_CHECK(other.size_ == size_);
  OSDP_CHECK(begin % 64 == 0 && begin <= end && end <= size_);
  ForEachBlockSpan(begin >> 6, (end + 63) >> 6,
                   [&](size_t b, size_t lo, size_t hi) {
                     uint64_t* w = MutableBlock(b);
                     const uint64_t* o = other.block(b);
                     for (size_t i = lo; i < hi; ++i) w[i] &= o[i];
                   });
}

RowMask& RowMask::AndNotWith(const RowMask& other) {
  OSDP_CHECK(other.size_ == size_);
  PrepareWrite(0, size_);
  ForEachBlockSpan(0, num_words(), [&](size_t b, size_t lo, size_t hi) {
    uint64_t* w = MutableBlock(b);
    const uint64_t* o = other.block(b);
    for (size_t i = lo; i < hi; ++i) w[i] &= ~o[i];
  });
  return *this;
}

RowMask& RowMask::FlipAll() {
  PrepareWrite(0, size_);
  ForEachBlockSpan(0, num_words(), [&](size_t b, size_t lo, size_t hi) {
    uint64_t* w = MutableBlock(b);
    for (size_t i = lo; i < hi; ++i) w[i] = ~w[i];
  });
  ClearTail();
  return *this;
}

template <typename Pred>
bool RowMask::AnyWord(const RowMask& other, const Pred& pred) const {
  for (size_t b = 0; b < num_blocks(); ++b) {
    const uint64_t* w = block(b);
    const uint64_t* o = other.block(b);
    for (size_t i = 0; i < block_words(b); ++i) {
      if (pred(w[i], o[i])) return true;
    }
  }
  return false;
}

bool RowMask::Intersects(const RowMask& other) const {
  OSDP_CHECK(other.size_ == size_);
  return AnyWord(other, [](uint64_t a, uint64_t b) { return (a & b) != 0; });
}

bool RowMask::IsSubsetOf(const RowMask& other) const {
  OSDP_CHECK(other.size_ == size_);
  return !AnyWord(other, [](uint64_t a, uint64_t b) { return (a & ~b) != 0; });
}

std::vector<size_t> RowMask::ToIndices() const {
  std::vector<size_t> out;
  out.reserve(Count());
  ForEachSet([&](size_t row) { out.push_back(row); });
  return out;
}

std::vector<bool> RowMask::ToBools() const {
  std::vector<bool> out(size_, false);
  ForEachSet([&](size_t row) { out[row] = true; });
  return out;
}

bool RowMask::operator==(const RowMask& other) const {
  return size_ == other.size_ &&
         !AnyWord(other, [](uint64_t a, uint64_t b) { return a != b; });
}

void RowMask::PrepareWrite(size_t begin, size_t end) {
  if (begin >= end) return;
  OSDP_CHECK(end <= size_);
  const size_t first = begin >> kChunkRowShift;
  const size_t last = NumChunks(end);
  if (first < num_sealed()) WritableFrom(first);
  std::vector<Slot*> shared;
  shared.reserve(last - first);
  bool all_null = true;
  for (size_t b = first; b < last; ++b) {
    Slot& s = slot(b);
    if (s.unique()) continue;
    shared.push_back(&s);
    all_null = all_null && s.null();
  }
  if (shared.empty()) return;
  row_mask_internal::BlockRun* run =
      row_mask_internal::BlockRun::Allocate(shared.size());
  // A fresh mask's blocks are all null: zero them with one fill.
  if (all_null) {
    std::fill_n(run->words(0), shared.size() * kBlockWords, uint64_t{0});
  }
  for (size_t i = 0; i < shared.size(); ++i) {
    if (!all_null) {
      std::copy_n(shared[i]->words(), kBlockWords, run->words(i));
    }
    *shared[i] = Slot(run, i);
  }
}

size_t RowMask::HeapBytes() const {
  size_t bytes = 0;
  if (spine_ != nullptr) {
    bytes += sizeof(*spine_) + spine_->capacity() * sizeof(Slot);
  }
  const row_mask_internal::BlockRun* counted = nullptr;
  for (size_t b = 0; b < num_blocks(); ++b) {
    const Slot& s = b < num_sealed() ? (*spine_)[b] : tail_;
    if (!s.null() && s.run() != counted) {
      counted = s.run();
      bytes += counted->bytes();
    }
  }
  return bytes;
}

void RowMask::TakeSpine(size_t capacity) {
  spine_ = CloneSpine<Slot>(spine_.get(), num_sealed(), capacity);
  owns_spine_ = true;
}

void RowMask::ClearTail() {
  const size_t tail = size_ & 63;
  if (tail != 0) {
    MutableBlock(num_blocks() - 1)[(num_words() - 1) % kBlockWords] &=
        (uint64_t{1} << tail) - 1;
  }
}

}  // namespace osdp
