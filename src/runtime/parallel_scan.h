// Sharded execution of the hot scan paths: CompiledPredicate mask
// evaluation, RowMask combination/popcount (the per-shard word loops are the
// src/data/bit_kernels.h kernels), and masked histograms, split
// across a ThreadPool in 64-bit-word-aligned segments.
//
// Every function here is bit-identical to its serial counterpart at any
// shard count — the contract tests/runtime_test.cc pins with randomized
// property tests. The alignment discipline makes that cheap to guarantee:
//
//   * Shard boundaries are multiples of 64 (AlignedShards), so each
//     shard owns whole words of every mask involved. Producers write
//     disjoint words, combiners rewrite disjoint words in place — no locks,
//     no read-modify-write sharing, no tail-bit coordination. A mask's
//     words live in 4096-row blocks that may be shared with other masks
//     (src/data/row_mask.h); a writer makes every block it will write
//     private first (RowMask::PrepareWrite), serially, so no shard copies a
//     block or a spine. Table-touching
//     scans (predicate evaluation, histogram accumulation) align shard edges
//     to kChunkRows — a multiple of 64, so the same disjoint-word argument
//     holds — and a shard's typed inner loops then never straddle a chunk.
//   * Per-word bit packing inside a shard is the same computation the serial
//     scan performs for those words (CompiledPredicate::EvalRangeInto).
//   * Histogram counts are integer-valued doubles; per-shard partial counts
//     merged in shard order sum exactly (no FP reordering error below 2^53),
//     so the merged histogram equals the serial row-order accumulation.
//
// Options select the pool and the shard count; the defaults (process-wide
// pool, one shard per worker) are right for throughput. More shards than
// workers is legal and occasionally useful for skewed string scans.
//
// The row-range forms shard [row_begin, row_end) the same way, with interior
// edges aligned in absolute row numbers, and equal the whole-table form
// restricted to that range. They are how MaskCache extends a generation's
// mask and aggregates to the next by scanning only the appended rows.

#ifndef OSDP_RUNTIME_PARALLEL_SCAN_H_
#define OSDP_RUNTIME_PARALLEL_SCAN_H_

#include <vector>

#include "src/common/cancel.h"
#include "src/data/compiled_predicate.h"
#include "src/data/row_mask.h"
#include "src/data/table.h"
#include "src/hist/histogram.h"
#include "src/hist/histogram_query.h"
#include "src/runtime/thread_pool.h"

namespace osdp {

/// How a sharded scan is executed.
struct ParallelScanOptions {
  /// Pool to run on; nullptr = ThreadPool::Default().
  ThreadPool* pool = nullptr;
  /// Number of shards; 0 = one per pool worker (minimum 1).
  size_t num_shards = 0;
  /// Cooperative cancellation/deadline control, polled once per shard
  /// (coarse by design: a shard is the natural preemption grain — millions
  /// of rows scan in milliseconds, and finer polling would put a clock read
  /// in the hot loop). nullptr = never cancelled. When a poll trips, the
  /// whole scan is abandoned by AbortedError (src/common/cancel.h) — there
  /// is never a partial result, so delivered results keep the bit-identity
  /// contract above untouched.
  const ExecControl* control = nullptr;
};

/// CompiledPredicate::EvalMask, sharded: each shard evaluates its word-
/// aligned row segment into disjoint words of the result.
RowMask ParallelEvalMask(const CompiledPredicate& pred, const Table& table,
                         const ParallelScanOptions& opts = {});

/// ParallelEvalMask for many predicates in one shared pass over rows
/// [row_begin, table.num_rows()) only: preds[i] writes outs[i] (sized
/// table.num_rows()), and words before row_begin, which must be a multiple
/// of 64, are left untouched. Each shard runs CompiledPredicate's
/// many-predicate EvalRangeInto over its rows, so a chunk's cells are read
/// once and evaluated for every predicate while they are still in cache.
/// With num_shards = 0 there is at least one shard per predicate. Every word
/// equals preds[i]'s own ParallelEvalMask.
void ParallelEvalMasksInto(const std::vector<const CompiledPredicate*>& preds,
                           const Table& table, size_t row_begin,
                           const std::vector<RowMask*>& outs,
                           const ParallelScanOptions& opts = {});

/// RowMask::Count, sharded: per-shard popcounts summed in shard order.
size_t ParallelCount(const RowMask& mask,
                     const ParallelScanOptions& opts = {});

/// |a ∧ b| over rows [row_begin, row_end) (equal sizes, checked; either
/// edge may fall mid-word), sharded like ParallelCount: each shard ANDs and
/// popcounts its own words of both masks in one pass, so neither mask is
/// copied or written — a shared cached mask is read in place. Equals
/// ParallelCount of a copy of `a` ANDed with `b` and restricted to the
/// range, at any shard count.
size_t ParallelAndCount(const RowMask& a, const RowMask& b, size_t row_begin,
                        size_t row_end, const ParallelScanOptions& opts = {});

/// RowMask::AndWith, sharded: each shard rewrites its own words.
void ParallelAndWith(RowMask* mask, const RowMask& other,
                     const ParallelScanOptions& opts = {});

/// Histogram accumulation, sharded, for callers that already hold a
/// PreparedHistogramQuery and a fully-selected mask (its WHERE mask, with
/// any other mask already ANDed in): each shard accumulates its row segment
/// of `selected` into a shard-local histogram, and the partials merge
/// lock-free in shard order. ComputeHistogramMasked, sharded, is
/// ParallelEvalMask of the WHERE clause and then the two-mask form below.
Histogram ParallelAccumulateHistogram(const PreparedHistogramQuery& prepared,
                                      const RowMask& selected,
                                      const ParallelScanOptions& opts = {});

/// The accumulation stage over the selected rows in [row_begin, row_end)
/// only; either edge may fall mid-word.
Histogram ParallelAccumulateHistogram(const PreparedHistogramQuery& prepared,
                                      const RowMask& selected,
                                      size_t row_begin, size_t row_end,
                                      const ParallelScanOptions& opts = {});

/// The accumulation stage over the rows in [row_begin, row_end) set in both
/// `where` and `also` (equal sizes, checked), ANDed word by word inside the
/// walk: bit-identical to accumulating a copy of `where` ANDed with `also`,
/// without the copy. This is how a cached WHERE mask meets the policy mask
/// for x_ns.
Histogram ParallelAccumulateHistogram(const PreparedHistogramQuery& prepared,
                                      const RowMask& where,
                                      const RowMask& also, size_t row_begin,
                                      size_t row_end,
                                      const ParallelScanOptions& opts = {});

}  // namespace osdp

#endif  // OSDP_RUNTIME_PARALLEL_SCAN_H_
