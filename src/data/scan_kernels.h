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
// As in src/data/bit_kernels.cc, the loop body is compiled twice on x86-64 —
// once with the `avx2` target enabled, once portable — and one cached
// runtime CPU check picks the body. Both bodies compute the same comparisons
// on the same integers and doubles, so the dispatch never changes a bit.

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

/// The two bodies FusedAndMask dispatches between, exposed so tests can run
/// each against a per-row oracle whatever the host CPU picks.
/// FusedAndMaskAvx2 may run only when Avx2Available().
bool Avx2Available();
void FusedAndMaskAvx2(const ScanLeg* legs, const void* const* cells,
                      size_t num_legs, size_t n, uint64_t* words);
void FusedAndMaskPortable(const ScanLeg* legs, const void* const* cells,
                          size_t num_legs, size_t n, uint64_t* words);

}  // namespace scan_kernels_internal

}  // namespace osdp

#endif  // OSDP_DATA_SCAN_KERNELS_H_
