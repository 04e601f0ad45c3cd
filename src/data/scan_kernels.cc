#include "src/data/scan_kernels.h"

#include <algorithm>
#include <cstring>

#include "src/common/check.h"

// x86-64 builds compile avx512- and avx2-enabled copies of the loop and
// choose one at run time; everywhere else the portable body is the only body.
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define OSDP_SIMD_DISPATCH 1
#else
#define OSDP_SIMD_DISPATCH 0
#endif

namespace osdp {

namespace {

// The loop bodies. Forced inline into each variant below, so the loops are
// vectorized under that variant's target options.

// acc[i] = cmp(i) for the first leg, acc[i] &= cmp(i) after it, i < m.
template <typename Cmp>
__attribute__((always_inline)) inline void Combine(uint8_t* acc, size_t m,
                                                   bool first,
                                                   const Cmp& cmp) {
  if (first) {
    for (size_t i = 0; i < m; ++i) acc[i] = cmp(i);
  } else {
    for (size_t i = 0; i < m; ++i) acc[i] &= cmp(i);
  }
}

// An unsigned leg of width U over rows [base, base + m) of `cells`, combined
// into acc[0, m).
template <typename U>
__attribute__((always_inline)) inline void UnsignedLegBytes(
    const ScanLeg& leg, const void* cells, size_t base, size_t m, bool first,
    uint8_t* acc) {
  const U* v = static_cast<const U*>(cells) + base;
  const U lo = static_cast<U>(leg.lo);
  const U span = static_cast<U>(leg.span);
  Combine(acc, m, first,
          [&](size_t i) { return static_cast<U>(v[i] - lo) <= span; });
}

// Leg `leg` over rows [base, base + m) of `cells`, combined into acc[0, m).
__attribute__((always_inline)) inline void LegBytes(const ScanLeg& leg,
                                                    const void* cells,
                                                    size_t base, size_t m,
                                                    bool first,
                                                    uint8_t* acc) {
  switch (leg.cells) {
    case LegCells::kU8:
      UnsignedLegBytes<uint8_t>(leg, cells, base, m, first, acc);
      return;
    case LegCells::kU16:
      UnsignedLegBytes<uint16_t>(leg, cells, base, m, first, acc);
      return;
    case LegCells::kU32:
      UnsignedLegBytes<uint32_t>(leg, cells, base, m, first, acc);
      return;
    case LegCells::kU64:
      UnsignedLegBytes<uint64_t>(leg, cells, base, m, first, acc);
      return;
    case LegCells::kDouble:
      break;
  }
  const double* v = static_cast<const double*>(cells) + base;
  const double lit = leg.lit;
  switch (leg.cmp) {
    case PredicateOp::kEq:
      Combine(acc, m, first, [&](size_t i) { return v[i] == lit; });
      return;
    case PredicateOp::kNe:
      Combine(acc, m, first, [&](size_t i) { return v[i] != lit; });
      return;
    case PredicateOp::kLt:
      Combine(acc, m, first, [&](size_t i) { return v[i] < lit; });
      return;
    case PredicateOp::kLe:
      Combine(acc, m, first, [&](size_t i) { return v[i] <= lit; });
      return;
    case PredicateOp::kGt:
      Combine(acc, m, first, [&](size_t i) { return v[i] > lit; });
      return;
    case PredicateOp::kGe:
      Combine(acc, m, first, [&](size_t i) { return v[i] >= lit; });
      return;
    default:
      OSDP_CHECK_MSG(false, "bad comparison op");
  }
}

// Packs 64 bytes, each 0 or 1, into one word: byte b becomes bit b. Per
// 8-byte group the multiply moves byte k's low bit to bit 56 + k; no two
// partial products overlap, so nothing carries into those bits.
__attribute__((always_inline)) inline uint64_t PackBytes(const uint8_t* acc) {
  uint64_t w = 0;
  for (size_t g = 0; g < 8; ++g) {
    uint64_t x;
    std::memcpy(&x, acc + 8 * g, sizeof(x));
    w |= ((x * 0x0102040810204080ULL) >> 56) << (8 * g);
  }
  return w;
}

__attribute__((always_inline)) inline void FusedAndLoop(
    const ScanLeg* legs, const void* const* cells, size_t num_legs, size_t n,
    uint64_t* words) {
  OSDP_DCHECK(num_legs >= 1 && num_legs <= kMaxFusedLegs);
  alignas(64) uint8_t acc[64];
  const size_t full_words = n >> 6;
  for (size_t wi = 0; wi < full_words; ++wi) {
    for (size_t k = 0; k < num_legs; ++k) {
      LegBytes(legs[k], cells[k], wi << 6, 64, k == 0, acc);
    }
    words[wi] = PackBytes(acc);
  }
  if (const size_t tail = n & 63; tail != 0) {
    std::memset(acc, 0, sizeof(acc));  // rows past n pack as zero bits
    for (size_t k = 0; k < num_legs; ++k) {
      LegBytes(legs[k], cells[k], full_words << 6, tail, k == 0, acc);
    }
    words[full_words] = PackBytes(acc);
  }
}

// The sealing loops: a full int64 chunk's minimum and maximum, then each
// cell's offset from the minimum at the narrowest width that holds them.

__attribute__((always_inline)) inline void MinMaxLoop(const int64_t* cells,
                                                      int64_t* lo,
                                                      int64_t* hi) {
  int64_t a = cells[0];
  int64_t b = cells[0];
  // From row 0, not 1: a whole-chunk trip count lets GCC vectorize at -O2.
  for (size_t i = 0; i < kChunkRows; ++i) {
    a = cells[i] < a ? cells[i] : a;
    b = cells[i] > b ? cells[i] : b;
  }
  *lo = a;
  *hi = b;
}

// The offsets vector of `out`, sized for a chunk. Out of line, so the
// allocation is compiled for the baseline ISA whichever body calls it.
template <typename U>
__attribute__((noinline)) U* AllocateOffsets(ForChunk* out) {
  return out->offsets.emplace<std::vector<U>>(kChunkRows).data();
}

template <typename U>
__attribute__((always_inline)) inline void OffsetsLoop(const int64_t* cells,
                                                       ForChunk* out) {
  const uint64_t base = out->base;
  U* offsets = AllocateOffsets<U>(out);
  if constexpr (sizeof(U) == 8) {
    for (size_t i = 0; i < kChunkRows; ++i) {
      offsets[i] = static_cast<uint64_t>(cells[i]) - base;
    }
  } else {
    // Through 32 bits, 64 rows at a time: GCC narrows 64-bit lanes to 32
    // bits and 32-bit lanes to 16 or 8 as vectors, but 64 to 8 bits one row
    // at a time.
    for (size_t j = 0; j < kChunkRows; j += 64) {
      uint32_t low[64];
      for (size_t i = 0; i < 64; ++i) {
        low[i] = static_cast<uint32_t>(static_cast<uint64_t>(cells[j + i]) -
                                       base);
      }
      for (size_t i = 0; i < 64; ++i) offsets[j + i] = static_cast<U>(low[i]);
    }
  }
}

__attribute__((always_inline)) inline void EncodeLoop(const int64_t* cells,
                                                      ForChunk* out) {
  int64_t lo;
  int64_t hi;
  MinMaxLoop(cells, &lo, &hi);
  out->base = static_cast<uint64_t>(lo);
  out->range = static_cast<uint64_t>(hi) - out->base;
  if (out->range <= UINT8_MAX) {
    OffsetsLoop<uint8_t>(cells, out);
  } else if (out->range <= UINT16_MAX) {
    OffsetsLoop<uint16_t>(cells, out);
  } else if (out->range <= UINT32_MAX) {
    OffsetsLoop<uint32_t>(cells, out);
  } else {
    OffsetsLoop<uint64_t>(cells, out);
  }
}

}  // namespace

LegOnChunk RebaseLeg(const ScanLeg& leg, uint64_t base, uint64_t range,
                     LegCells offset_cells, ScanLeg* out) {
  OSDP_DCHECK(leg.cells == LegCells::kU64);
  if (leg.span == ~uint64_t{0}) return LegOnChunk::kAll;
  // On offsets, the leg is the arc [a, e] of the 2^64 circle.
  const uint64_t a = leg.lo - base;
  const uint64_t e = a + leg.span;
  uint64_t lo;    // the passing offsets, as an arc [lo, lo + span] of the
  uint64_t span;  // offset width's circle
  if (uint64_t{0} - a > leg.span) {
    // Offset 0 fails, so the arc does not wrap: a <= e, and it meets
    // [0, range] in [a, min(e, range)] when a <= range.
    if (a > range) return LegOnChunk::kNone;
    lo = a;
    span = std::min(e, range) - a;
  } else if (e >= range) {
    return LegOnChunk::kAll;  // [0, e] passes
  } else if (a == 0 || a > range) {
    lo = 0;  // [0, e] passes, and the arc does not come back below range
    span = e;
  } else {
    // [0, e] and [a, range], with a > e + 1 since the arc is not the whole
    // circle: the arc from a round to e of the width's circle, whose values
    // past range no offset takes.
    lo = a;
    span = e - a;
  }
  const uint64_t width_mask =
      offset_cells == LegCells::kU8    ? uint64_t{0xFF}
      : offset_cells == LegCells::kU16 ? uint64_t{0xFFFF}
      : offset_cells == LegCells::kU32 ? uint64_t{0xFFFFFFFF}
                                       : ~uint64_t{0};
  OSDP_DCHECK(range <= width_mask);
  *out = leg;
  out->cells = offset_cells;
  out->lo = lo & width_mask;
  out->span = span & width_mask;
  return LegOnChunk::kTest;
}

namespace scan_kernels_internal {

void FusedAndMaskPortable(const ScanLeg* legs, const void* const* cells,
                          size_t num_legs, size_t n, uint64_t* words) {
  FusedAndLoop(legs, cells, num_legs, n, words);
}

void EncodeForChunkPortable(const int64_t* cells, ForChunk* out) {
  EncodeLoop(cells, out);
}

#if OSDP_SIMD_DISPATCH

// The target strings below name exactly the features each check tests;
// libgcc's check also requires the OS to save the wider register state.
bool Avx512Available() {
  static const bool available = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") != 0 &&
           __builtin_cpu_supports("avx512bw") != 0 &&
           __builtin_cpu_supports("avx512vl") != 0;
  }();
  return available;
}

bool Avx2Available() {
  static const bool available = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return available;
}

__attribute__((target("avx512f,avx512bw,avx512vl"))) void FusedAndMaskAvx512(
    const ScanLeg* legs, const void* const* cells, size_t num_legs, size_t n,
    uint64_t* words) {
  FusedAndLoop(legs, cells, num_legs, n, words);
}

__attribute__((target("avx2"))) void FusedAndMaskAvx2(
    const ScanLeg* legs, const void* const* cells, size_t num_legs, size_t n,
    uint64_t* words) {
  FusedAndLoop(legs, cells, num_legs, n, words);
}

__attribute__((target("avx512f,avx512bw,avx512vl"))) void
EncodeForChunkAvx512(const int64_t* cells, ForChunk* out) {
  EncodeLoop(cells, out);
}

__attribute__((target("avx2"))) void EncodeForChunkAvx2(const int64_t* cells,
                                                        ForChunk* out) {
  EncodeLoop(cells, out);
}

#else

bool Avx512Available() { return false; }
bool Avx2Available() { return false; }

void FusedAndMaskAvx512(const ScanLeg* legs, const void* const* cells,
                        size_t num_legs, size_t n, uint64_t* words) {
  FusedAndLoop(legs, cells, num_legs, n, words);
}

void FusedAndMaskAvx2(const ScanLeg* legs, const void* const* cells,
                      size_t num_legs, size_t n, uint64_t* words) {
  FusedAndLoop(legs, cells, num_legs, n, words);
}

void EncodeForChunkAvx512(const int64_t* cells, ForChunk* out) {
  EncodeLoop(cells, out);
}

void EncodeForChunkAvx2(const int64_t* cells, ForChunk* out) {
  EncodeLoop(cells, out);
}

#endif

const char* DispatchedBodyName() {
  if (Avx512Available()) return "avx512";
  if (Avx2Available()) return "avx2";
  return "portable";
}

}  // namespace scan_kernels_internal

void FusedAndMask(const ScanLeg* legs, const void* const* cells,
                  size_t num_legs, size_t n, uint64_t* words) {
  namespace k = scan_kernels_internal;
  if (k::Avx512Available()) {
    k::FusedAndMaskAvx512(legs, cells, num_legs, n, words);
  } else if (k::Avx2Available()) {
    k::FusedAndMaskAvx2(legs, cells, num_legs, n, words);
  } else {
    k::FusedAndMaskPortable(legs, cells, num_legs, n, words);
  }
}

void EncodeForChunk(const int64_t* cells, ForChunk* out) {
  namespace k = scan_kernels_internal;
  if (k::Avx512Available()) {
    k::EncodeForChunkAvx512(cells, out);
  } else if (k::Avx2Available()) {
    k::EncodeForChunkAvx2(cells, out);
  } else {
    k::EncodeForChunkPortable(cells, out);
  }
}

}  // namespace osdp
