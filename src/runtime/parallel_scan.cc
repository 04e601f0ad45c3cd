#include "src/runtime/parallel_scan.h"

#include <vector>

#include "src/common/check.h"
#include "src/data/bit_kernels.h"

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

// Runs fn(shard_index, row_begin, row_end) over shards of [0, num_rows)
// whose interior edges are multiples of `alignment` (a multiple of 64, so
// shards always own whole mask words). The shard edges are deterministic,
// so per-shard outputs indexed by shard_index merge deterministically
// regardless of scheduling.
template <typename Fn>
void ForEachShard(size_t num_rows, const ParallelScanOptions& opts,
                  size_t alignment, const Fn& fn) {
  ThreadPool& pool = PoolOf(opts);
  const std::vector<size_t> edges =
      AlignedShards(num_rows, ShardsOf(opts, pool), alignment);
  const size_t shards = edges.size() - 1;
  pool.ParallelForBlocked(0, shards, 1, [&](size_t lo, size_t hi) {
    for (size_t s = lo; s < hi; ++s) {
      PollAbort(opts);
      fn(s, edges[s], edges[s + 1]);
    }
  });
}

}  // namespace

RowMask ParallelEvalMask(const CompiledPredicate& pred, const Table& table,
                         const ParallelScanOptions& opts) {
  RowMask out(table.num_rows());
  // Chunk-aligned shards: a shard's typed inner loops never straddle a
  // chunk edge, so each shard is one ForEachSpan span per chunk it owns.
  // Still 64-aligned, so bit-identity to the serial scan is untouched.
  ForEachShard(table.num_rows(), opts, kChunkRows,
               [&](size_t /*shard*/, size_t begin, size_t end) {
                 pred.EvalRangeInto(table, begin, end, &out);
               });
  return out;
}

namespace {

// Sums fn(word_lo, word_hi) over the 64-aligned shards of [0, num_rows), in
// shard order. Integer partials, so the sum is exact at any shard count.
template <typename Fn>
size_t SumOverWordShards(size_t num_rows, const ParallelScanOptions& opts,
                         const Fn& fn) {
  ThreadPool& pool = PoolOf(opts);
  const std::vector<size_t> edges =
      AlignedShards(num_rows, ShardsOf(opts, pool), /*alignment=*/64);
  const size_t shards = edges.size() - 1;
  std::vector<size_t> partial(shards, 0);
  pool.ParallelForBlocked(0, shards, 1, [&](size_t lo, size_t hi) {
    for (size_t s = lo; s < hi; ++s) {
      PollAbort(opts);
      partial[s] = fn(edges[s] >> 6, (edges[s + 1] + 63) >> 6);
    }
  });
  size_t total = 0;
  for (size_t n : partial) total += n;
  return total;
}

}  // namespace

size_t ParallelCount(const RowMask& mask, const ParallelScanOptions& opts) {
  const uint64_t* words = mask.words();
  return SumOverWordShards(mask.size(), opts, [&](size_t wlo, size_t whi) {
    return PopcountWords(words, wlo, whi);
  });
}

size_t ParallelAndCount(const RowMask& a, const RowMask& b,
                        const ParallelScanOptions& opts) {
  OSDP_CHECK(a.size() == b.size());
  const uint64_t* aw = a.words();
  const uint64_t* bw = b.words();
  return SumOverWordShards(a.size(), opts, [&](size_t wlo, size_t whi) {
    return AndPopcountWords(aw, bw, wlo, whi);
  });
}

void ParallelAndWith(RowMask* mask, const RowMask& other,
                     const ParallelScanOptions& opts) {
  OSDP_CHECK(mask->size() == other.size());
  uint64_t* dst = mask->mutable_words();
  const uint64_t* src = other.words();
  ForEachShard(mask->size(), opts, /*alignment=*/64,
               [&](size_t /*shard*/, size_t begin, size_t end) {
                 const size_t whi = (end + 63) >> 6;
                 for (size_t wi = begin >> 6; wi < whi; ++wi) {
                   dst[wi] &= src[wi];
                 }
               });
}

namespace {

// Per-shard partial histograms, accumulate(begin, end, &partial) over
// chunk-aligned shards of [0, num_rows), merged lock-free in shard order.
// Chunk alignment keeps each shard's accumulation loops within chunk spans;
// the merge order is shard order either way, so counts are unchanged.
template <typename Accumulate>
Histogram ShardedHistogram(const PreparedHistogramQuery& prepared,
                           size_t num_rows, const ParallelScanOptions& opts,
                           const Accumulate& accumulate) {
  ThreadPool& pool = PoolOf(opts);
  const std::vector<size_t> edges =
      AlignedShards(num_rows, ShardsOf(opts, pool), kChunkRows);
  const size_t shards = edges.size() - 1;
  std::vector<Histogram> partial(shards, Histogram(prepared.num_bins()));
  pool.ParallelForBlocked(0, shards, 1, [&](size_t lo, size_t hi) {
    for (size_t s = lo; s < hi; ++s) {
      PollAbort(opts);
      accumulate(edges[s], edges[s + 1], &partial[s]);
    }
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
                                      const ParallelScanOptions& opts) {
  return ShardedHistogram(
      prepared, selected.size(), opts,
      [&](size_t begin, size_t end, Histogram* out) {
        prepared.AccumulateRange(selected, begin, end, out);
      });
}

Histogram ParallelAccumulateHistogram(const PreparedHistogramQuery& prepared,
                                      const RowMask& where,
                                      const RowMask& also,
                                      const ParallelScanOptions& opts) {
  OSDP_CHECK(where.size() == also.size());
  return ShardedHistogram(
      prepared, where.size(), opts,
      [&](size_t begin, size_t end, Histogram* out) {
        prepared.AccumulateRange(where, also, begin, end, out);
      });
}

Result<Histogram> ParallelComputeHistogramMasked(
    const Table& table, const HistogramQuery& query, const RowMask& mask,
    const ParallelScanOptions& opts) {
  if (mask.size() != table.num_rows()) {
    return Status::InvalidArgument("mask size != table rows");
  }
  OSDP_ASSIGN_OR_RETURN(PreparedHistogramQuery prepared,
                        PreparedHistogramQuery::Prepare(table, query));

  if (prepared.where() == nullptr) {
    return ParallelAccumulateHistogram(prepared, mask, opts);
  }
  // Shard-parallel WHERE evaluation into a scratch mask; the AND with the
  // caller's mask happens word by word inside the accumulation walk.
  const RowMask where = ParallelEvalMask(*prepared.where(), table, opts);
  return ParallelAccumulateHistogram(prepared, where, mask, opts);
}

}  // namespace osdp
