// Scan kernels: the fused comparison loop under CompiledPredicate's numeric
// leaves and AND chains (src/data/compiled_predicate.cc).
//
// One call evaluates a conjunction of numeric comparisons ("legs") over n
// consecutive rows and packs the result into mask words. Per 64-row word,
// every leg compares its 64 cells into one 64-byte buffer (the first leg
// stores, later legs AND in), and the buffer is packed into the word once.
// The legs arrive already lowered by Compile():
//
//   int64 column   (uint64_t)v - lo <= span, in wrapping unsigned
//                  arithmetic: membership in the interval [lo, lo + span]
//                  taken around the 2^64 circle, so a plain range and the
//                  complement of one (for !=) are the same test.
//   double column  v <cmp> lit, the plain IEEE comparison.
//
// Why a kernel layer: the library is built for the baseline x86-64 ISA,
// which has no 64-bit vector compare, so the loop runs one row at a time.
// As in src/data/bit_kernels.cc, the loop body is compiled more than once on
// x86-64, and one cached runtime CPU check picks the body, in this order:
//
//   avx512    target("avx512f,avx512bw,avx512vl"), when the CPU has all three
//   avx2      target("avx2")
//   portable  the baseline ISA; the only body off x86-64
//
// All three are the same source template, so they compute the same
// comparisons on the same integers and doubles, and the dispatch never
// changes a bit.
//
// What GCC 12 emits at -O2 for one int64 leg over a 64-row word:
//   avx2    a loop of two 32-row halves. AVX2 compares only signed 64-bit
//           lanes, so each 4-row vector pays a second vpsubq (the 2^63 bias),
//           vpcmpgtq and vpandn. Narrowing the 64-bit results to bytes then
//           takes a vperm2i128/vpshufd/vpunpcklqdq/vpackusdw/vpackuswb/vpermq
//           chain. That is about 2 instructions per row per leg, and each
//           half of the byte buffer goes through the stack.
//   avx512  fully unrolled: 8 loads, 8 vpsubq, and 8 unsigned vpcmpuq that
//           write k mask registers directly. A zero-masked move of a vector
//           of ones turns each mask back into 0/1 lanes, and two-source
//           permutes (vpermt2d, vpermt2w) plus vpmovwb narrow them to bytes:
//           about 0.7 instructions per row per leg. The 64-byte buffer is a
//           single zmm register that later legs vpandq into, so it is
//           stored only once, for the pack.
// The double compares (vcmp*pd) follow the same two patterns.
//
// On the fresh_scans clause (two int64 legs) the avx512 body runs at about
// 0.43 ns/row in L2 and 0.74 at 2M rows, against 0.78 and 0.93 for avx2; at
// 2M rows it is bound by L3-to-core bandwidth. docs/parallelism.md has the
// measurements and the reason there is no -mavx512f build flag.

#ifndef OSDP_DATA_SCAN_KERNELS_H_
#define OSDP_DATA_SCAN_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "src/data/predicate.h"

namespace osdp {

/// One numeric comparison of a fused AND chain, lowered at compile time.
struct ScanLeg {
  /// True: an int64 column, tested (uint64_t)v - lo <= span.
  /// False: a double column, tested v <cmp> lit.
  bool is_int = true;
  uint64_t lo = 0;
  uint64_t span = 0;
  PredicateOp cmp = PredicateOp::kEq;
  double lit = 0.0;
};

/// The most legs one FusedAndMask call takes.
inline constexpr size_t kMaxFusedLegs = 8;

/// \brief Writes words[0, ceil(n / 64)): bit i is set iff every leg k
/// (k < num_legs, 1 <= num_legs <= kMaxFusedLegs) holds for its cell i.
///
/// cells[k] points at n int64_t cells when legs[k].is_int, else at n
/// doubles. Bits past n in the last word are written zero.
void FusedAndMask(const ScanLeg* legs, const void* const* cells,
                  size_t num_legs, size_t n, uint64_t* words);

namespace scan_kernels_internal {

/// The three bodies FusedAndMask dispatches between, exposed so tests and
/// benches can run each whatever the host CPU picks. FusedAndMaskAvx512 may
/// run only when Avx512Available(), FusedAndMaskAvx2 only when
/// Avx2Available(); both are false off x86-64.
bool Avx512Available();
bool Avx2Available();
void FusedAndMaskAvx512(const ScanLeg* legs, const void* const* cells,
                        size_t num_legs, size_t n, uint64_t* words);
void FusedAndMaskAvx2(const ScanLeg* legs, const void* const* cells,
                      size_t num_legs, size_t n, uint64_t* words);
void FusedAndMaskPortable(const ScanLeg* legs, const void* const* cells,
                          size_t num_legs, size_t n, uint64_t* words);

/// The body FusedAndMask runs on this host: "avx512", "avx2" or "portable".
const char* DispatchedBodyName();

}  // namespace scan_kernels_internal

}  // namespace osdp

#endif  // OSDP_DATA_SCAN_KERNELS_H_
