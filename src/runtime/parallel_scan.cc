#include "src/runtime/parallel_scan.h"

#include <algorithm>
#include <vector>

#include "src/common/check.h"

namespace osdp {

namespace {

ThreadPool& PoolOf(const ParallelScanOptions& opts) {
  return opts.pool != nullptr ? *opts.pool : ThreadPool::Default();
}

size_t ShardsOf(const ParallelScanOptions& opts, const ThreadPool& pool) {
  if (opts.num_shards != 0) return opts.num_shards;
  return pool.num_threads() == 0 ? 1 : pool.num_threads();
}

// The per-shard cancellation poll: throws AbortedError when the caller's
// token fired or deadline passed. One branch when no control is attached.
void PollAbort(const ParallelScanOptions& opts) {
  if (opts.control != nullptr) opts.control->ThrowIfAborted();
}

// The shard edges of rows [row_begin, row_end): interior edges are multiples
// of `alignment` (a multiple of 64, so shards always own whole mask words)
// in absolute row numbers; only the first shard may start, and the last
// end, mid-word. The edges are deterministic, so per-shard outputs indexed
// by shard merge deterministically regardless of scheduling. An empty range
// has no shard (one edge).
std::vector<size_t> ShardEdges(size_t row_begin, size_t row_end,
                               const ParallelScanOptions& opts,
                               size_t alignment) {
  if (row_begin >= row_end) return {row_begin};
  // Shard [base, row_end) from an aligned base, so that shifting the
  // relative edges back keeps every interior edge aligned.
  const size_t base = row_begin - row_begin % alignment;
  std::vector<size_t> edges = AlignedShards(
      row_end - base, ShardsOf(opts, PoolOf(opts)), alignment);
  for (size_t& edge : edges) edge += base;
  edges.front() = row_begin;
  return edges;
}

// Runs fn(shard, begin, end) for every shard of `edges` on the pool, polling
// for abort before each.
template <typename Fn>
void ForEachShard(const std::vector<size_t>& edges,
                  const ParallelScanOptions& opts, const Fn& fn) {
  PoolOf(opts).ParallelForBlocked(
      0, edges.size() - 1, 1, [&](size_t lo, size_t hi) {
        for (size_t s = lo; s < hi; ++s) {
          PollAbort(opts);
          fn(s, edges[s], edges[s + 1]);
        }
      });
}

}  // namespace

void ParallelEvalMasksInto(const std::vector<const CompiledPredicate*>& preds,
                           const Table& table, size_t row_begin,
                           const std::vector<RowMask*>& outs,
                           const ParallelScanOptions& opts) {
  OSDP_CHECK(preds.size() == outs.size());
  OSDP_CHECK(row_begin % 64 == 0);
  // By default at least one shard per predicate, so that with a one-worker
  // pool the caller and the worker both scan a many-predicate pass.
  ParallelScanOptions sharding = opts;
  if (sharding.num_shards == 0) {
    sharding.num_shards =
        std::max(ShardsOf(opts, PoolOf(opts)), preds.size());
  }
  // Every block the shards write is made writable up front, so no shard
  // allocates a block or replaces a mask's spine.
  for (RowMask* out : outs) out->PrepareWrite(row_begin, table.num_rows());
  // Chunk-aligned shards: a shard's typed inner loops never straddle a
  // chunk edge, so each shard is one ForEachSpan span per chunk it owns.
  // Still 64-aligned, so bit-identity to the serial scan is untouched.
  ForEachShard(ShardEdges(row_begin, table.num_rows(), sharding, kChunkRows),
               opts, [&](size_t /*shard*/, size_t begin, size_t end) {
                 CompiledPredicate::EvalRangeInto(preds, table, begin, end,
                                                  outs);
               });
}

RowMask ParallelEvalMask(const CompiledPredicate& pred, const Table& table,
                         const ParallelScanOptions& opts) {
  RowMask out(table.num_rows());
  ParallelEvalMasksInto({&pred}, table, /*row_begin=*/0, {&out}, opts);
  return out;
}

namespace {

// Sums fn(begin, end) over the 64-aligned shards of [row_begin, row_end), in
// shard order. Integer partials, so the sum is exact at any shard count.
template <typename Fn>
size_t SumOverWordShards(size_t row_begin, size_t row_end,
                         const ParallelScanOptions& opts, const Fn& fn) {
  const std::vector<size_t> edges =
      ShardEdges(row_begin, row_end, opts, /*alignment=*/64);
  std::vector<size_t> partial(edges.size() - 1, 0);
  ForEachShard(edges, opts, [&](size_t s, size_t begin, size_t end) {
    partial[s] = fn(begin, end);
  });
  size_t total = 0;
  for (size_t n : partial) total += n;
  return total;
}

}  // namespace

size_t ParallelCount(const RowMask& mask, const ParallelScanOptions& opts) {
  return SumOverWordShards(0, mask.size(), opts, [&](size_t begin, size_t end) {
    return mask.CountInRange(begin, end);
  });
}

size_t ParallelAndCount(const RowMask& a, const RowMask& b, size_t row_begin,
                        size_t row_end, const ParallelScanOptions& opts) {
  OSDP_CHECK(a.size() == b.size());
  OSDP_CHECK(row_begin <= row_end && row_end <= a.size());
  return SumOverWordShards(
      row_begin, row_end, opts, [&](size_t begin, size_t end) {
        return a.AndCountInRange(b, begin, end);
      });
}

void ParallelAndWith(RowMask* mask, const RowMask& other,
                     const ParallelScanOptions& opts) {
  OSDP_CHECK(mask->size() == other.size());
  // Copy-on-write happens here, serially: shards then write in place.
  mask->PrepareWrite(0, mask->size());
  ForEachShard(ShardEdges(0, mask->size(), opts, /*alignment=*/64), opts,
               [&](size_t /*shard*/, size_t begin, size_t end) {
                 mask->AndWithInRange(other, begin, end);
               });
}

namespace {

// Per-shard partial histograms, accumulate(begin, end, &partial) over
// chunk-aligned shards of [row_begin, row_end), merged lock-free in shard
// order. Chunk alignment keeps each shard's accumulation loops within chunk
// spans; the merge order is shard order either way, so counts are unchanged.
template <typename Accumulate>
Histogram ShardedHistogram(const PreparedHistogramQuery& prepared,
                           size_t row_begin, size_t row_end,
                           const ParallelScanOptions& opts,
                           const Accumulate& accumulate) {
  const std::vector<size_t> edges =
      ShardEdges(row_begin, row_end, opts, kChunkRows);
  std::vector<Histogram> partial(edges.size() - 1,
                                 Histogram(prepared.num_bins()));
  ForEachShard(edges, opts, [&](size_t s, size_t begin, size_t end) {
    accumulate(begin, end, &partial[s]);
  });

  // Lock-free merge in shard order: integer-valued partial counts sum
  // exactly, so this equals the serial row-order accumulation bit for bit.
  Histogram out(prepared.num_bins());
  std::vector<double>& counts = out.counts();
  for (const Histogram& p : partial) {
    for (size_t b = 0; b < counts.size(); ++b) counts[b] += p[b];
  }
  return out;
}

}  // namespace

Histogram ParallelAccumulateHistogram(const PreparedHistogramQuery& prepared,
                                      const RowMask& selected,
                                      size_t row_begin, size_t row_end,
                                      const ParallelScanOptions& opts) {
  OSDP_CHECK(row_begin <= row_end && row_end <= selected.size());
  return ShardedHistogram(
      prepared, row_begin, row_end, opts,
      [&](size_t begin, size_t end, Histogram* out) {
        prepared.AccumulateRange(selected, begin, end, out);
      });
}

Histogram ParallelAccumulateHistogram(const PreparedHistogramQuery& prepared,
                                      const RowMask& selected,
                                      const ParallelScanOptions& opts) {
  return ParallelAccumulateHistogram(prepared, selected, 0, selected.size(),
                                     opts);
}

Histogram ParallelAccumulateHistogram(const PreparedHistogramQuery& prepared,
                                      const RowMask& where,
                                      const RowMask& also, size_t row_begin,
                                      size_t row_end,
                                      const ParallelScanOptions& opts) {
  OSDP_CHECK(where.size() == also.size());
  OSDP_CHECK(row_begin <= row_end && row_end <= where.size());
  return ShardedHistogram(
      prepared, row_begin, row_end, opts,
      [&](size_t begin, size_t end, Histogram* out) {
        prepared.AccumulateRange(where, also, begin, end, out);
      });
}

}  // namespace osdp
