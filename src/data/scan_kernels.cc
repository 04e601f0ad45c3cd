#include "src/data/scan_kernels.h"

#include <algorithm>
#include <cstring>

#include "src/common/check.h"

// x86-64 builds compile avx512 and avx2 bodies and choose one at run time;
// everywhere else the portable body is the only body.
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define OSDP_SIMD_DISPATCH 1
#include <immintrin.h>
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

// Rows [64 * (n / 64), n), the partial last word, if n leaves one.
__attribute__((always_inline)) inline void TailWord(const ScanLeg* legs,
                                                    const void* const* cells,
                                                    size_t num_legs, size_t n,
                                                    uint64_t* words) {
  const size_t tail = n & 63;
  if (tail == 0) return;
  alignas(64) uint8_t acc[64];
  std::memset(acc, 0, sizeof(acc));  // rows past n pack as zero bits
  const size_t full_words = n >> 6;
  for (size_t k = 0; k < num_legs; ++k) {
    LegBytes(legs[k], cells[k], full_words << 6, tail, k == 0, acc);
  }
  words[full_words] = PackBytes(acc);
}

// The portable body: per word, every leg into the byte buffer, then one
// pack.
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
  TailWord(legs, cells, num_legs, n, words);
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

// The SIMD bodies (scan_kernels.h says what each emits): full words leg by
// leg, straight from the compare masks; the partial last word through
// TailWord, so no vector load reaches past row n.

#define OSDP_AVX512 __attribute__((target("avx512f,avx512bw,avx512vl")))
#define OSDP_AVX2 __attribute__((target("avx2")))
#define OSDP_INLINE __attribute__((always_inline)) inline

namespace {

// Words per block: one chunk's, so a block's words stay in L1 while every
// leg ANDs into them.
constexpr size_t kBlockWords = kChunkRows / 64;

// *word = w for the first leg, *word &= w after it.
OSDP_INLINE void Put(uint64_t* word, uint64_t w, bool first) {
  *word = first ? w : (*word & w);
}

// --- AVX-512: a compare writes a k mask, one bit per lane.

template <typename U>
OSDP_AVX512 OSDP_INLINE __m512i Avx512Splat(uint64_t x) {
  if constexpr (sizeof(U) == 1) return _mm512_set1_epi8(static_cast<char>(x));
  if constexpr (sizeof(U) == 2) {
    return _mm512_set1_epi16(static_cast<int16_t>(x));
  }
  if constexpr (sizeof(U) == 4) {
    return _mm512_set1_epi32(static_cast<int32_t>(x));
  }
  return _mm512_set1_epi64(static_cast<int64_t>(x));
}

// Bits [0, 64 / sizeof(U)) of a word: (U)(x[i] - lo) <= span per lane.
template <typename U>
OSDP_AVX512 OSDP_INLINE uint64_t Avx512InArc(__m512i x, __m512i lo,
                                             __m512i span) {
  if constexpr (sizeof(U) == 1) {
    return _mm512_cmple_epu8_mask(_mm512_sub_epi8(x, lo), span);
  }
  if constexpr (sizeof(U) == 2) {
    return _mm512_cmple_epu16_mask(_mm512_sub_epi16(x, lo), span);
  }
  if constexpr (sizeof(U) == 4) {
    return _mm512_cmple_epu32_mask(_mm512_sub_epi32(x, lo), span);
  }
  return _mm512_cmple_epu64_mask(_mm512_sub_epi64(x, lo), span);
}

// An unsigned leg of width U over words[0, nw), its cells from v.
template <typename U>
OSDP_AVX512 OSDP_INLINE void Avx512UnsignedLeg(const ScanLeg& leg,
                                               const U* v, size_t nw,
                                               bool first, uint64_t* words) {
  constexpr size_t kLanes = 64 / sizeof(U);
  const __m512i lo = Avx512Splat<U>(leg.lo);
  const __m512i span = Avx512Splat<U>(leg.span);
  for (size_t i = 0; i < nw; ++i, v += 64) {
    uint64_t w = 0;
#pragma GCC unroll 8
    for (size_t j = 0; j < sizeof(U); ++j) {
      w |= Avx512InArc<U>(_mm512_loadu_si512(v + j * kLanes), lo, span)
           << (j * kLanes);
    }
    Put(words + i, w, first);
  }
}

// A double leg over words[0, nw): v[i] <kPred> lit, kPred an _mm512_cmp_pd
// predicate.
template <int kPred>
OSDP_AVX512 OSDP_INLINE void Avx512DoubleLeg(double lit, const double* v,
                                             size_t nw, bool first,
                                             uint64_t* words) {
  const __m512d l = _mm512_set1_pd(lit);
  for (size_t i = 0; i < nw; ++i, v += 64) {
    uint64_t w = 0;
#pragma GCC unroll 8
    for (size_t j = 0; j < 8; ++j) {
      w |= uint64_t{_mm512_cmp_pd_mask(_mm512_loadu_pd(v + 8 * j), l, kPred)}
           << (8 * j);
    }
    Put(words + i, w, first);
  }
}

// Leg `leg` over words[0, nw), its cells from row `row` of `cells`.
OSDP_AVX512 OSDP_INLINE void Avx512LegWords(const ScanLeg& leg,
                                            const void* cells, size_t row,
                                            size_t nw, bool first,
                                            uint64_t* words) {
  switch (leg.cells) {
    case LegCells::kU8:
      return Avx512UnsignedLeg(leg, static_cast<const uint8_t*>(cells) + row,
                               nw, first, words);
    case LegCells::kU16:
      return Avx512UnsignedLeg(leg, static_cast<const uint16_t*>(cells) + row,
                               nw, first, words);
    case LegCells::kU32:
      return Avx512UnsignedLeg(leg, static_cast<const uint32_t*>(cells) + row,
                               nw, first, words);
    case LegCells::kU64:
      return Avx512UnsignedLeg(leg, static_cast<const uint64_t*>(cells) + row,
                               nw, first, words);
    case LegCells::kDouble:
      break;
  }
  // The IEEE compares: != is the one that holds on NaN (unordered), the
  // rest fail on it (ordered).
  const double* v = static_cast<const double*>(cells) + row;
  switch (leg.cmp) {
    case PredicateOp::kEq:
      return Avx512DoubleLeg<_CMP_EQ_OQ>(leg.lit, v, nw, first, words);
    case PredicateOp::kNe:
      return Avx512DoubleLeg<_CMP_NEQ_UQ>(leg.lit, v, nw, first, words);
    case PredicateOp::kLt:
      return Avx512DoubleLeg<_CMP_LT_OQ>(leg.lit, v, nw, first, words);
    case PredicateOp::kLe:
      return Avx512DoubleLeg<_CMP_LE_OQ>(leg.lit, v, nw, first, words);
    case PredicateOp::kGt:
      return Avx512DoubleLeg<_CMP_GT_OQ>(leg.lit, v, nw, first, words);
    case PredicateOp::kGe:
      return Avx512DoubleLeg<_CMP_GE_OQ>(leg.lit, v, nw, first, words);
    default:
      OSDP_CHECK_MSG(false, "bad comparison op");
  }
}

// --- AVX2: a movemask gathers one bit per lane from a compare's lanes.

template <typename U>
OSDP_AVX2 OSDP_INLINE __m256i Avx2Splat(uint64_t x) {
  if constexpr (sizeof(U) == 1) return _mm256_set1_epi8(static_cast<char>(x));
  if constexpr (sizeof(U) == 2) {
    return _mm256_set1_epi16(static_cast<int16_t>(x));
  }
  if constexpr (sizeof(U) == 4) {
    return _mm256_set1_epi32(static_cast<int32_t>(x));
  }
  return _mm256_set1_epi64x(static_cast<int64_t>(x));
}

OSDP_AVX2 OSDP_INLINE __m256i Avx2Load(const void* p) {
  return _mm256_loadu_si256(static_cast<const __m256i*>(p));
}

// Lanes of all ones where (U)(x - lo) <= span, for U of 1, 2 or 4 bytes:
// an unsigned d <= span is min(d, span) == d.
template <typename U>
OSDP_AVX2 OSDP_INLINE __m256i Avx2InArc(__m256i x, __m256i lo, __m256i span) {
  if constexpr (sizeof(U) == 1) {
    const __m256i d = _mm256_sub_epi8(x, lo);
    return _mm256_cmpeq_epi8(_mm256_min_epu8(d, span), d);
  }
  if constexpr (sizeof(U) == 2) {
    const __m256i d = _mm256_sub_epi16(x, lo);
    return _mm256_cmpeq_epi16(_mm256_min_epu16(d, span), d);
  }
  const __m256i d = _mm256_sub_epi32(x, lo);
  return _mm256_cmpeq_epi32(_mm256_min_epu32(d, span), d);
}

// 32 bits of a word from 32 cells at v: (U)(v[i] - lo) <= span. u16 packs
// two vectors' lanes to bytes (packs interleaves 128-bit lanes, and the
// permute puts the rows back in order) for one byte movemask.
template <typename U>
OSDP_AVX2 OSDP_INLINE uint64_t Avx2InArc32(const U* v, __m256i lo,
                                           __m256i span) {
  if constexpr (sizeof(U) == 1) {
    return static_cast<uint32_t>(
        _mm256_movemask_epi8(Avx2InArc<U>(Avx2Load(v), lo, span)));
  }
  if constexpr (sizeof(U) == 2) {
    const __m256i bytes = _mm256_permute4x64_epi64(
        _mm256_packs_epi16(Avx2InArc<U>(Avx2Load(v), lo, span),
                           Avx2InArc<U>(Avx2Load(v + 16), lo, span)),
        0xD8);
    return static_cast<uint32_t>(_mm256_movemask_epi8(bytes));
  }
  uint64_t w = 0;
#pragma GCC unroll 4
  for (size_t j = 0; j < 4; ++j) {
    const __m256i pass = Avx2InArc<U>(Avx2Load(v + 8 * j), lo, span);
    w |= uint64_t{static_cast<uint32_t>(
             _mm256_movemask_ps(_mm256_castsi256_ps(pass)))}
         << (8 * j);
  }
  return w;
}

// An unsigned leg of 1, 2 or 4 bytes over words[0, nw), its cells from v.
template <typename U>
OSDP_AVX2 OSDP_INLINE void Avx2UnsignedLeg(const ScanLeg& leg, const U* v,
                                           size_t nw, bool first,
                                           uint64_t* words) {
  const __m256i lo = Avx2Splat<U>(leg.lo);
  const __m256i span = Avx2Splat<U>(leg.span);
  for (size_t i = 0; i < nw; ++i, v += 64) {
    Put(words + i,
        Avx2InArc32(v, lo, span) | (Avx2InArc32(v + 32, lo, span) << 32),
        first);
  }
}

// A u64 leg over words[0, nw). AVX2 compares only signed 64-bit lanes, so
// both sides of d <= span take a 2^63 bias, and the movemask reads the
// failing lanes.
OSDP_AVX2 OSDP_INLINE void Avx2U64Leg(const ScanLeg& leg, const uint64_t* v,
                                      size_t nw, bool first, uint64_t* words) {
  const __m256i bias = _mm256_set1_epi64x(INT64_MIN);
  const __m256i lo = Avx2Splat<uint64_t>(leg.lo);
  const __m256i span = _mm256_xor_si256(Avx2Splat<uint64_t>(leg.span), bias);
  for (size_t i = 0; i < nw; ++i, v += 64) {
    uint64_t fail = 0;
#pragma GCC unroll 16
    for (size_t j = 0; j < 16; ++j) {
      const __m256i d =
          _mm256_xor_si256(_mm256_sub_epi64(Avx2Load(v + 4 * j), lo), bias);
      fail |= uint64_t{static_cast<uint32_t>(_mm256_movemask_pd(
                  _mm256_castsi256_pd(_mm256_cmpgt_epi64(d, span))))}
              << (4 * j);
    }
    Put(words + i, ~fail, first);
  }
}

// A double leg over words[0, nw): v[i] <kPred> lit, kPred an _mm256_cmp_pd
// predicate.
template <int kPred>
OSDP_AVX2 OSDP_INLINE void Avx2DoubleLeg(double lit, const double* v,
                                         size_t nw, bool first,
                                         uint64_t* words) {
  const __m256d l = _mm256_set1_pd(lit);
  for (size_t i = 0; i < nw; ++i, v += 64) {
    uint64_t w = 0;
#pragma GCC unroll 16
    for (size_t j = 0; j < 16; ++j) {
      w |= uint64_t{static_cast<uint32_t>(_mm256_movemask_pd(
               _mm256_cmp_pd(_mm256_loadu_pd(v + 4 * j), l, kPred)))}
           << (4 * j);
    }
    Put(words + i, w, first);
  }
}

// Leg `leg` over words[0, nw), its cells from row `row` of `cells`.
OSDP_AVX2 OSDP_INLINE void Avx2LegWords(const ScanLeg& leg, const void* cells,
                                        size_t row, size_t nw, bool first,
                                        uint64_t* words) {
  switch (leg.cells) {
    case LegCells::kU8:
      return Avx2UnsignedLeg(leg, static_cast<const uint8_t*>(cells) + row, nw,
                             first, words);
    case LegCells::kU16:
      return Avx2UnsignedLeg(leg, static_cast<const uint16_t*>(cells) + row,
                             nw, first, words);
    case LegCells::kU32:
      return Avx2UnsignedLeg(leg, static_cast<const uint32_t*>(cells) + row,
                             nw, first, words);
    case LegCells::kU64:
      return Avx2U64Leg(leg, static_cast<const uint64_t*>(cells) + row, nw,
                        first, words);
    case LegCells::kDouble:
      break;
  }
  const double* v = static_cast<const double*>(cells) + row;
  switch (leg.cmp) {
    case PredicateOp::kEq:
      return Avx2DoubleLeg<_CMP_EQ_OQ>(leg.lit, v, nw, first, words);
    case PredicateOp::kNe:
      return Avx2DoubleLeg<_CMP_NEQ_UQ>(leg.lit, v, nw, first, words);
    case PredicateOp::kLt:
      return Avx2DoubleLeg<_CMP_LT_OQ>(leg.lit, v, nw, first, words);
    case PredicateOp::kLe:
      return Avx2DoubleLeg<_CMP_LE_OQ>(leg.lit, v, nw, first, words);
    case PredicateOp::kGt:
      return Avx2DoubleLeg<_CMP_GT_OQ>(leg.lit, v, nw, first, words);
    case PredicateOp::kGe:
      return Avx2DoubleLeg<_CMP_GE_OQ>(leg.lit, v, nw, first, words);
    default:
      OSDP_CHECK_MSG(false, "bad comparison op");
  }
}

}  // namespace

OSDP_AVX512 void FusedAndMaskAvx512(const ScanLeg* legs,
                                    const void* const* cells, size_t num_legs,
                                    size_t n, uint64_t* words) {
  OSDP_DCHECK(num_legs >= 1 && num_legs <= kMaxFusedLegs);
  const size_t full_words = n >> 6;
  for (size_t w0 = 0; w0 < full_words; w0 += kBlockWords) {
    const size_t nw = std::min(kBlockWords, full_words - w0);
    for (size_t k = 0; k < num_legs; ++k) {
      Avx512LegWords(legs[k], cells[k], w0 << 6, nw, k == 0, words + w0);
    }
  }
  TailWord(legs, cells, num_legs, n, words);
}

OSDP_AVX2 void FusedAndMaskAvx2(const ScanLeg* legs, const void* const* cells,
                                size_t num_legs, size_t n, uint64_t* words) {
  OSDP_DCHECK(num_legs >= 1 && num_legs <= kMaxFusedLegs);
  const size_t full_words = n >> 6;
  for (size_t w0 = 0; w0 < full_words; w0 += kBlockWords) {
    const size_t nw = std::min(kBlockWords, full_words - w0);
    for (size_t k = 0; k < num_legs; ++k) {
      Avx2LegWords(legs[k], cells[k], w0 << 6, nw, k == 0, words + w0);
    }
  }
  TailWord(legs, cells, num_legs, n, words);
}

OSDP_AVX512 void EncodeForChunkAvx512(const int64_t* cells, ForChunk* out) {
  EncodeLoop(cells, out);
}

OSDP_AVX2 void EncodeForChunkAvx2(const int64_t* cells, ForChunk* out) {
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
