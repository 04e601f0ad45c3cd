// Scan kernels: the fused comparison loop under CompiledPredicate's numeric
// leaves and AND chains (src/data/compiled_predicate.cc), and the encoder
// that seals int64 chunks into the frame-of-reference form it reads.
//
// One call evaluates a conjunction of numeric comparisons ("legs") over n
// consecutive rows and writes the result as mask words. The legs arrive
// already lowered by Compile() and, for int64 columns, rebased per chunk by
// RebaseLeg:
//
//   int64 column   a sealed chunk is base + offset, offsets of 8, 16, 32 or
//                  64 bits (src/data/chunked_column.h). The leg reads the
//                  offsets at their width U and tests (U)(offset - lo) <=
//                  span in U's wrapping arithmetic: membership in an arc of
//                  U's circle, so a plain range and the complement of one
//                  (for !=) are the same test. The raw tail is the 64-bit
//                  case with base 0.
//   double column  v <cmp> lit, the plain IEEE comparison.
//
// Why a kernel layer: the library is built for the baseline x86-64 ISA,
// which has no 64-bit vector compare and no one-bit-per-lane compare
// result, so a loop built for it runs about one row at a time. As in
// src/data/bit_kernels.cc, x86-64 builds have more than one body, and one
// cached runtime CPU check picks the body, in this order:
//
//   avx512    target("avx512f,avx512bw,avx512vl"), when the CPU has all three
//   avx2      target("avx2")
//   portable  the baseline ISA; the only body off x86-64
//
// portable is one source template (FusedAndLoop in scan_kernels.cc): per
// 64-row word, every leg compares its 64 cells into a 64-byte buffer of 0/1
// (the first leg stores, later legs AND in), and eight multiply-shifts pack
// the buffer into the word. Compiled for AVX-512, that template spent most
// of its time turning the compare's k mask back into bytes and packing them
// again, so the two SIMD bodies are written with intrinsics and take each
// word straight from the compare. They loop leg by leg over a block's full
// words (4096 rows): the first leg stores each word and later legs AND into
// it, so a leg's width switch runs once per block, not once per word. Per
// leg and 64-row word:
//
//   avx512  one k mask per 64-byte vector of (v - lo) compared unsigned
//           against span: u8 one vpcmpub, u16 two vpcmpuw joined as
//           lo | hi << 32, u32 four vpcmpud, u64 eight vpcmpuq. Doubles:
//           eight vcmppd.
//   avx2    a movemask gathers one bit per lane. u8: two vpmovmskb of
//           min(d, span) == d. u16: two pairs of compares, each pair
//           narrowed to bytes by vpacksswb and put back in row order by
//           vpermq for one vpmovmskb. u32: eight vmovmskps. u64: AVX2
//           compares only signed 64-bit lanes, so both sides take a 2^63
//           bias and sixteen vmovmskpd read the failing lanes. Doubles:
//           sixteen vcmppd + vmovmskpd.
//
// A double != is the unordered predicate, true on NaN; the other five are
// ordered, false on NaN, as in C++. A table's partial last word goes
// through the portable byte loop in every body, so no body loads a cell
// past row n.
//
// The dispatch never changes a bit: every body computes the same
// comparisons on the same integers and doubles, and
// ScanKernelsTest.EveryBodyMatchesTheRowOracle
// (tests/compiled_predicate_test.cc) pins each body the host has against a
// per-row oracle, at every width, on wrapped arcs and NaN literals, at word
// and chunk edges, with each leg's cells in an exactly sized heap block so
// the AddressSanitizer build reports a load past row n.
//
// On the fresh_scans clause with both columns at one width,
// bench_predicate_pipeline's kernel rows give, in ns/row on one core of the
// 4-vCPU x86-64 host, best of 30 calls at 100k rows (in L2) / 10M rows:
//   avx512    u8 0.05 / 0.27   u16 0.07 / 0.37   u64 0.28 / 1.73
//   avx2      u8 0.05 / 0.26   u16 0.08 / 0.55   u64 0.38 / 1.71
//   portable  u8 0.31 / 0.53   u16 0.32 / 0.66   u64 1.76 / 2.42
// In L2 the SIMD bodies run 4-6x faster than portable. Past L2 every body is
// bound by memory bandwidth, which the host's other tenants share, so the
// 10M figures move between recordings more than the 100k ones do.
// Census data seals age to u8 and zip to u16. docs/parallelism.md has the
// table for every body and the reason there is no -mavx512f build flag.
//
// EncodeForChunk (declared in chunked_column.h) shares the dispatch: a
// min/max pass and an offset pass over the chunk, about 1 us a chunk on the
// avx512 body.

#ifndef OSDP_DATA_SCAN_KERNELS_H_
#define OSDP_DATA_SCAN_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "src/data/chunked_column.h"
#include "src/data/predicate.h"

namespace osdp {

/// What a leg's cells are: unsigned integers of one width, or doubles.
enum class LegCells : uint8_t { kU8, kU16, kU32, kU64, kDouble };

/// The LegCells of unsigned integer cells of type U.
template <typename U>
constexpr LegCells LegCellsOf() {
  static_assert(sizeof(U) == 1 || sizeof(U) == 2 || sizeof(U) == 4 ||
                sizeof(U) == 8);
  return sizeof(U) == 1   ? LegCells::kU8
         : sizeof(U) == 2 ? LegCells::kU16
         : sizeof(U) == 4 ? LegCells::kU32
                          : LegCells::kU64;
}

/// One numeric comparison of a fused AND chain, lowered at compile time.
struct ScanLeg {
  /// kU8..kU64: unsigned cells of that width, tested (U)(v - lo) <= span in
  /// U's wrapping arithmetic; lo and span must fit in U. An int64 column is
  /// compiled to a kU64 leg on its cells reinterpreted as uint64_t, and
  /// RebaseLeg moves it onto a frame-of-reference chunk's offsets.
  /// kDouble: double cells, tested v <cmp> lit.
  LegCells cells = LegCells::kU64;
  uint64_t lo = 0;
  uint64_t span = 0;
  PredicateOp cmp = PredicateOp::kEq;
  double lit = 0.0;
};

/// What an int64 leg is on one frame-of-reference chunk.
enum class LegOnChunk {
  kNone,  // no cell of the chunk passes
  kAll,   // every cell of the chunk passes
  kTest,  // the rebased leg decides
};

/// \brief Lowers `leg` — a kU64 leg on int64 cells, the interval
/// [lo, lo + span] of the 2^64 circle — onto a chunk whose cells are
/// base + offset for offsets in [0, range], stored as `offset_cells`
/// (range must fit in that width). On kTest, `*out` is a leg of that width
/// that passes exactly the offsets whose cells `leg` passes. Exact in
/// integers: the offset set is the intersection of two arcs, which is empty,
/// all of [0, range], one interval, or two intervals that touch its two
/// ends — one arc of the offset width's circle.
LegOnChunk RebaseLeg(const ScanLeg& leg, uint64_t base, uint64_t range,
                     LegCells offset_cells, ScanLeg* out);

/// The most legs one FusedAndMask call takes.
inline constexpr size_t kMaxFusedLegs = 8;

/// \brief Writes words[0, ceil(n / 64)): bit i is set iff every leg k
/// (k < num_legs, 1 <= num_legs <= kMaxFusedLegs) holds for its cell i.
///
/// cells[k] points at n cells of the type legs[k].cells names. Bits past n
/// in the last word are written zero.
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

/// The three bodies EncodeForChunk (src/data/chunked_column.h) dispatches
/// between, under the same rules.
void EncodeForChunkAvx512(const int64_t* cells, ForChunk* out);
void EncodeForChunkAvx2(const int64_t* cells, ForChunk* out);
void EncodeForChunkPortable(const int64_t* cells, ForChunk* out);

/// The body FusedAndMask runs on this host: "avx512", "avx2" or "portable".
const char* DispatchedBodyName();

}  // namespace scan_kernels_internal

}  // namespace osdp

#endif  // OSDP_DATA_SCAN_KERNELS_H_
