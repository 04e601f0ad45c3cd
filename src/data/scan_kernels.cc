#include "src/data/scan_kernels.h"

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

// Leg `leg` over rows [base, base + m) of `cells`, combined into acc[0, m).
__attribute__((always_inline)) inline void LegBytes(const ScanLeg& leg,
                                                    const void* cells,
                                                    size_t base, size_t m,
                                                    bool first,
                                                    uint8_t* acc) {
  if (leg.is_int) {
    const int64_t* v = static_cast<const int64_t*>(cells) + base;
    const uint64_t lo = leg.lo;
    const uint64_t span = leg.span;
    Combine(acc, m, first, [&](size_t i) {
      return static_cast<uint64_t>(v[i]) - lo <= span;
    });
    return;
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

}  // namespace

namespace scan_kernels_internal {

void FusedAndMaskPortable(const ScanLeg* legs, const void* const* cells,
                          size_t num_legs, size_t n, uint64_t* words) {
  FusedAndLoop(legs, cells, num_legs, n, words);
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

}  // namespace osdp
