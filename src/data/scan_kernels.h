// Scan kernels: the fused comparison loop under CompiledPredicate's numeric
// leaves and AND chains (src/data/compiled_predicate.cc), and the encoder
// that seals int64 chunks into the frame-of-reference form it reads.
//
// One call evaluates a conjunction of numeric comparisons ("legs") over n
// consecutive rows and packs the result into mask words. Per 64-row word,
// every leg compares its 64 cells into one 64-byte buffer (the first leg
// stores, later legs AND in), and the buffer is packed into the word once.
// The legs arrive already lowered by Compile() and, for int64 columns,
// rebased per chunk by RebaseLeg:
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
// changes a bit. The leg's width is a runtime switch per leg per word, so
// one call can mix a 1-byte age with a 2-byte zip.
//
// What GCC 12 emits at -O2 for one leg over a 64-row word:
//   avx512  u8: one 64-byte load, one vpsubb and one unsigned vpcmpub into a
//           k mask register. u16: two each of vpsubw and vpcmpuw. u64: fully
//           unrolled, 8 loads, 8 vpsubq, and 8 unsigned vpcmpuq; a
//           zero-masked move of a vector of ones turns each mask back into
//           0/1 lanes, and two-source permutes (vpermt2d, vpermt2w) plus
//           vpmovwb narrow them to bytes, about 0.7 instructions per row.
//           The 64-byte buffer is a single zmm register that later legs
//           vpandq into, so it is stored only once, for the pack.
//   avx2    u8 and u16: vpsubb/vpsubw, then x <= span as a saturating
//           subtract (vpsubusb/vpsubusw) compared equal to zero. u64: AVX2
//           compares only signed 64-bit lanes, so each 4-row vector pays a
//           second vpsubq (the 2^63 bias), vpcmpgtq and vpandn, and narrowing
//           the results to bytes takes a shuffle/pack chain, about 2
//           instructions per row.
// The double compares (vcmp*pd) follow the u64 patterns.
//
// On the fresh_scans clause with both columns at one width,
// bench_predicate_pipeline's kernel rows give, in ns/row on one core of the
// 4-vCPU x86-64 host, best of 30 calls at 100k rows (in L2) / 10M rows:
//   avx512    u8 0.10 / 0.18   u16 0.17 / 0.18   u64 0.37 / 1.54
//   avx2      u8 0.15 / 0.20   u16 0.21 / 0.33   u64 0.74 / 1.70
// u64 reads 8 bytes a row, as on a raw tail; past L2 it is bound by memory
// bandwidth, which the narrow widths, reading 1/8 and 1/4 of its bytes,
// stay clear of. Census data seals age to u8 and zip to u16. docs/parallelism.md has the table and the reason there is no
// -mavx512f build flag.
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
