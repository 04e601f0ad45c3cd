// The MaskCache test battery — the correctness definition of the result-
// caching subsystem. Unit tests pin the cache mechanics (fingerprint ×
// generation keying, deep-equality collision rejection, LRU eviction under a
// byte budget, stats accounting) and the aggregate memo (computed once per
// entry, charged and evicted with it, racing fills agreeing, failed fills
// storing nothing); the extension suite pins a generation built from an
// older one's words and aggregates equal to a cold scan, and which entries
// may serve as its base; the service-level property suites pin the
// only property that ultimately matters: a cache-enabled QueryService is
// observationally bit-identical to a cache-disabled twin — for every query,
// across sessions, thread counts, word-boundary table sizes, generations,
// and eviction pressure. Runs under the TSan and ASan+UBSan CI jobs.

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/fault.h"
#include "src/common/random.h"
#include "src/core/engine.h"
#include "src/data/compiled_predicate.h"
#include "src/data/predicate.h"
#include "src/data/row_mask.h"
#include "src/data/snapshot.h"
#include "src/data/table_builder.h"
#include "src/hist/histogram_query.h"
#include "src/policy/policy.h"
#include "src/runtime/mask_cache.h"
#include "src/runtime/parallel_scan.h"
#include "src/runtime/query_service.h"
#include "src/runtime/thread_pool.h"
#include "tests/serial_replay.h"

namespace osdp {
namespace {

// ------------------------------------------------------------- unit tests ---

RowMask PatternMask(size_t rows, uint64_t seed) {
  RowMask m(rows);
  for (size_t i = 0; i < rows; ++i) {
    if (((i * 0x9E3779B97F4A7C15ULL) ^ seed) & 1) m.Set(i);
  }
  return m;
}

// Bytes the cache charges: a 64-row mask (one block of its own) under a
// 1-byte canonical key, and a histogram of `bins` bins (mask_cache.cc's flat
// allowances).
const size_t kSmallEntryBytes = PatternMask(64, 1).HeapBytes() + 1 + 128;
constexpr size_t HistogramCharge(size_t bins) { return bins * 8 + 96; }

// Copies the words of `from` for rows [row_begin, size) into `out` (equal
// sizes; row_begin a multiple of 64), as a real range scan writes them.
void CopyWordsFrom(const RowMask& from, size_t row_begin, RowMask* out) {
  for (size_t w = row_begin / 64; w < out->num_words(); ++w) {
    out->MutableBlock(w / kBlockWords)[w % kBlockWords] =
        from.block(w / kBlockWords)[w % kBlockWords];
  }
}

std::shared_ptr<const std::string> Canon(const std::string& s) {
  return std::make_shared<const std::string>(s);
}

// Scans rows [row_begin, rows) of one clause into `out`, leaving the words
// before `row_begin` untouched.
using RangeScan = std::function<void(size_t row_begin, RowMask* out)>;

// One clause through LookupManyKeyed: its entry, with the clause's exception
// rethrown and, when `cache_hit` is non-null, its hit flag reported.
MaskCache::EntryPtr LookupKeyed(MaskCache& cache, uint64_t fingerprint,
                                std::shared_ptr<const std::string> canonical,
                                uint64_t generation, size_t rows,
                                const RangeScan& scan,
                                bool* cache_hit = nullptr) {
  MaskCache::Found found = std::move(cache.LookupManyKeyed(
      {MaskCache::Clause{fingerprint, std::move(canonical)}}, generation, rows,
      [&](size_t row_begin, const std::vector<size_t>& /*which*/,
          const std::vector<RowMask*>& outs) { scan(row_begin, outs[0]); })[0]);
  if (cache_hit != nullptr) *cache_hit = found.cache_hit;
  if (found.error != nullptr) std::rethrow_exception(found.error);
  return found.entry;
}

// LookupKeyed under `pred`'s own fingerprint and canonical bytes.
MaskCache::EntryPtr Lookup(MaskCache& cache, const CompiledPredicate& pred,
                           uint64_t generation, size_t rows,
                           const RangeScan& scan) {
  return LookupKeyed(cache, pred.Fingerprint(), pred.shared_canonical_key(),
                     generation, rows, scan);
}

// A RangeScan that yields `mask` whole, for lookups that must not extend.
RangeScan Whole(RowMask mask) {
  return [mask](size_t row_begin, RowMask* out) {
    EXPECT_EQ(row_begin, 0u) << "a lookup extended an entry it must not";
    *out = mask;
  };
}

TEST(MaskCacheTest, KeyedByFingerprintAndGeneration) {
  MaskCache cache({/*max_bytes=*/1 << 20, /*num_shards=*/4});
  const RowMask mask_a = PatternMask(100, 1);
  const RowMask mask_b = PatternMask(100, 2);
  int computes = 0;
  bool hit = true;

  auto got = cache.LookupOrComputeKeyed(
      7, Canon("A"), 0, [&] { ++computes; return mask_a; }, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(computes, 1);
  EXPECT_TRUE(*got == mask_a);

  // Same key: served from cache, compute not called.
  got = cache.LookupOrComputeKeyed(
      7, Canon("A"), 0, [&] { ++computes; return mask_b; }, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(computes, 1);
  EXPECT_TRUE(*got == mask_a);

  // Same fingerprint, later generation: a distinct entry.
  got = cache.LookupOrComputeKeyed(
      7, Canon("A"), 1, [&] { ++computes; return mask_b; }, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(computes, 2);
  EXPECT_TRUE(*got == mask_b);

  // Generation 0 entry is still live (no in-place invalidation).
  got = cache.LookupOrComputeKeyed(
      7, Canon("A"), 0, [&] { ++computes; return mask_b; }, &hit);
  EXPECT_TRUE(hit);
  EXPECT_TRUE(*got == mask_a);

  const MaskCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(MaskCacheTest, FingerprintCollisionIsRejectedByDeepEquality) {
  // Two keys with the SAME 64-bit fingerprint but different canonical bytes
  // must never alias: the deep structural check turns the collision into a
  // miss, and both entries coexist under the shared hash.
  MaskCache cache({1 << 20, 1});
  const RowMask mask_a = PatternMask(64, 1);
  const RowMask mask_b = PatternMask(64, 2);
  bool hit = true;

  cache.LookupOrComputeKeyed(42, Canon("pred A"), 0,
                             [&] { return mask_a; }, &hit);
  EXPECT_FALSE(hit);
  auto got = cache.LookupOrComputeKeyed(42, Canon("pred B"), 0,
                                        [&] { return mask_b; }, &hit);
  EXPECT_FALSE(hit) << "colliding fingerprint served the wrong mask";
  EXPECT_TRUE(*got == mask_b);

  // Both survive and resolve to their own values.
  got = cache.LookupOrComputeKeyed(42, Canon("pred A"), 0,
                                   [&] { return mask_b; }, &hit);
  EXPECT_TRUE(hit);
  EXPECT_TRUE(*got == mask_a);
  got = cache.LookupOrComputeKeyed(42, Canon("pred B"), 0,
                                   [&] { return mask_a; }, &hit);
  EXPECT_TRUE(hit);
  EXPECT_TRUE(*got == mask_b);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(MaskCacheTest, LruEvictsLeastRecentlyUsedUnderByteBudget) {
  // One shard; budget fits exactly two entries (64-row mask = one block,
  // 1-byte canonical, 128 overhead → kSmallEntryBytes each).
  MaskCache cache({2 * kSmallEntryBytes + 26, 1});
  const RowMask mask = PatternMask(64, 3);
  int computes = 0;
  bool hit = false;
  const auto lookup = [&](const std::string& key) {
    cache.LookupOrComputeKeyed(
        std::hash<std::string>{}(key), Canon(key), 0,
        [&] { ++computes; return mask; }, &hit);
    return hit;
  };

  EXPECT_FALSE(lookup("A"));
  EXPECT_FALSE(lookup("B"));
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_TRUE(lookup("A"));  // touch A: B is now least recently used
  EXPECT_FALSE(lookup("C"));  // evicts B
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_TRUE(lookup("A")) << "touched entry was evicted instead of LRU";
  EXPECT_FALSE(lookup("B")) << "evicted entry still served";
  EXPECT_EQ(computes, 4);
  EXPECT_LE(cache.stats().bytes, 2 * kSmallEntryBytes + 26);
}

TEST(MaskCacheTest, OversizedEntryIsServedButNeverStored) {
  // A mask bigger than the whole shard budget computes every time and leaves
  // the cache untouched (no thrash, no accounting drift).
  MaskCache cache({64, 1});
  const RowMask mask = PatternMask(10000, 4);
  int computes = 0;
  bool hit = true;
  for (int i = 0; i < 3; ++i) {
    auto got = cache.LookupOrComputeKeyed(
        9, Canon("big"), 0, [&] { ++computes; return mask; }, &hit);
    EXPECT_FALSE(hit);
    EXPECT_TRUE(*got == mask);
  }
  EXPECT_EQ(computes, 3);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST(MaskCacheTest, ZeroBudgetDisablesCaching) {
  MaskCache cache({0, 4});
  EXPECT_FALSE(cache.enabled());
  const RowMask mask = PatternMask(64, 5);
  int computes = 0;
  bool hit = true;
  for (int i = 0; i < 2; ++i) {
    cache.LookupOrComputeKeyed(1, Canon("k"), 0,
                               [&] { ++computes; return mask; }, &hit);
    EXPECT_FALSE(hit);
  }
  EXPECT_EQ(computes, 2);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(MaskCacheTest, TypedLookupSharesEntriesAcrossCommutedSpellings) {
  // The typed API keyed by CompiledPredicate::Fingerprint(): And(a, b)
  // compiled from either spelling resolves to one entry, and the shared
  // mask is bit-identical to what the second spelling would have computed.
  const Table table = CensusRows(321, 0xCAFE);
  const Predicate a = Predicate::Le("age", Value(40));
  const Predicate b = Predicate::Eq("opt_in", Value(1));
  const CompiledPredicate ab =
      *CompiledPredicate::Compile(Predicate::And(a, b), table.schema());
  const CompiledPredicate ba =
      *CompiledPredicate::Compile(Predicate::And(b, a), table.schema());

  MaskCache cache({1 << 20, 4});
  bool hit = true;
  auto first = cache.LookupOrCompute(
      ab, 0, [&] { return ab.EvalMask(table); }, &hit);
  EXPECT_FALSE(hit);
  auto second = cache.LookupOrCompute(
      ba, 0, [&] { return ba.EvalMask(table); }, &hit);
  EXPECT_TRUE(hit) << "commuted spelling missed the shared entry";
  EXPECT_TRUE(first.get() == second.get());
  EXPECT_TRUE(*second == ba.EvalMask(table));
}

// ------------------------------------------------------ aggregate memo ---

// An 8-bin histogram key; `column` tells keys apart.
MaskCache::HistogramKey BinsKey(size_t bins, size_t column = 0) {
  MaskCache::HistogramKey key;
  key.column = column;
  key.bins = bins;
  return key;
}

Histogram Ramp(size_t bins) {
  Histogram h(bins);
  for (size_t i = 0; i < bins; ++i) h[i] = static_cast<double>(i);
  return h;
}


TEST(MaskCacheAggregateTest, MemoComputesOncePerEntry) {
  MaskCache cache({1 << 20, 2});
  const auto entry =
      LookupKeyed(cache, 1, Canon("A"), 0, 64, Whole(PatternMask(64, 1)));
  int count_computes = 0;
  int hist_computes = 0;
  const auto count_of = [&](const MaskCache::Entry& e, size_t value) {
    return cache.NonSensitiveCount(e, [&](size_t) {
      ++count_computes;
      return value;
    });
  };
  const auto hist_of = [&](const MaskCache::HistogramKey& key) {
    return cache.AggregateHistogram(*entry, key, [&](size_t) {
      ++hist_computes;
      return Ramp(8);
    });
  };
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(count_of(*entry, 17), 17u);
    EXPECT_EQ(hist_of(BinsKey(8))->counts(), Ramp(8).counts());
  }
  EXPECT_EQ(count_computes, 1);
  EXPECT_EQ(hist_computes, 1);

  // A count of zero is a known value, not "unknown".
  const auto other =
      LookupKeyed(cache, 2, Canon("B"), 0, 64, Whole(PatternMask(64, 2)));
  EXPECT_EQ(count_of(*other, 0), 0u);
  EXPECT_EQ(count_of(*other, 0), 0u);
  EXPECT_EQ(count_computes, 2);

  // Histograms are keyed by rows, column and binning, bit for bit.
  MaskCache::HistogramKey ns_key = BinsKey(8);
  ns_key.non_sensitive = true;
  MaskCache::HistogramKey shifted = BinsKey(8);
  shifted.lo_bits = 1;
  hist_of(ns_key);
  hist_of(BinsKey(8, /*column=*/3));
  hist_of(shifted);
  EXPECT_EQ(hist_computes, 4);

  const MaskCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.aggregate_misses, 6u);
  EXPECT_EQ(stats.aggregate_hits, 5u);
}

TEST(MaskCacheAggregateTest, UncachedEntriesRecomputeAndCountNothing) {
  // Disabled, and too large for its shard: the entry serves its mask, and
  // every aggregate requested through it is computed and never stored.
  MaskCache disabled({0, 4});
  MaskCache tiny({64, 1});
  for (MaskCache* cache : {&disabled, &tiny}) {
    const auto entry = LookupKeyed(*cache, 1, Canon("A"), 0, 10000,
                                   Whole(PatternMask(10000, 1)));
    int computes = 0;
    for (int i = 0; i < 2; ++i) {
      cache->NonSensitiveCount(*entry, [&](size_t) {
        ++computes;
        return size_t{3};
      });
      cache->AggregateHistogram(*entry, BinsKey(4), [&](size_t) {
        ++computes;
        return Ramp(4);
      });
    }
    EXPECT_EQ(computes, 4);
    const MaskCache::Stats stats = cache->stats();
    EXPECT_EQ(stats.aggregate_hits + stats.aggregate_misses, 0u);
    EXPECT_EQ(stats.bytes, 0u);
  }
  EXPECT_EQ(disabled.stats().hits + disabled.stats().misses, 0u)
      << "a disabled cache counts no lookups";
}

TEST(MaskCacheAggregateTest, EvictedEntryTakesItsAggregatesWithIt) {
  // One shard: an entry with an 8-bin histogram (kSmallEntryBytes + 160)
  // fits alone; a second entry pushes it out.
  MaskCache cache({kSmallEntryBytes + HistogramCharge(8) + 3, 1});
  int computes = 0;
  const auto lookup = [&](const std::string& key) {
    return LookupKeyed(cache, std::hash<std::string>{}(key), Canon(key), 0,
                       64, Whole(PatternMask(64, 7)));
  };
  const auto fill = [&](const MaskCache::Entry& entry) {
    cache.NonSensitiveCount(entry, [&](size_t) {
      ++computes;
      return size_t{9};
    });
    cache.AggregateHistogram(entry, BinsKey(8), [&](size_t) {
      ++computes;
      return Ramp(8);
    });
  };

  const auto a = lookup("A");
  fill(*a);
  EXPECT_EQ(computes, 2);
  EXPECT_EQ(cache.stats().bytes, kSmallEntryBytes + HistogramCharge(8));
  lookup("B");  // evicts A, histogram and all
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().bytes, kSmallEntryBytes);

  // A holder of the evicted entry still reads its memo, but nothing new is
  // charged to a shard it left.
  fill(*a);
  EXPECT_EQ(computes, 2);
  cache.AggregateHistogram(*a, BinsKey(8, /*column=*/1), [&](size_t) {
    ++computes;
    return Ramp(8);
  });
  EXPECT_EQ(computes, 3);
  EXPECT_EQ(cache.stats().bytes, kSmallEntryBytes);

  // Looked up again, A is a fresh entry: both aggregates recompute.
  bool hit = true;
  const auto again = LookupKeyed(cache, std::hash<std::string>{}("A"),
                                 Canon("A"), 0, 64, Whole(PatternMask(64, 7)),
                                 &hit);
  EXPECT_FALSE(hit);
  fill(*again);
  EXPECT_EQ(computes, 5);
}

TEST(MaskCacheAggregateTest, AttachedHistogramBytesCountAndEvictTheLruTail) {
  // One shard holds two bare entries (2 × kSmallEntryBytes); attaching a
  // 160-byte histogram to the newer one pushes the older one out.
  const size_t kBudget = 2 * kSmallEntryBytes + 126;
  MaskCache cache({kBudget, 1});
  const auto a =
      LookupKeyed(cache, 1, Canon("A"), 0, 64, Whole(PatternMask(64, 1)));
  const auto b =
      LookupKeyed(cache, 2, Canon("B"), 0, 64, Whole(PatternMask(64, 2)));
  EXPECT_EQ(cache.stats().bytes, 2 * kSmallEntryBytes);

  cache.AggregateHistogram(*b, BinsKey(8), [](size_t) { return Ramp(8); });
  MaskCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, kSmallEntryBytes + HistogramCharge(8));
  bool hit = false;
  LookupKeyed(cache, 2, Canon("B"), 0, 64, Whole(PatternMask(64, 2)), &hit);
  EXPECT_TRUE(hit) << "the entry that grew was evicted instead of the tail";

  // A histogram that could never fit beside its entry is served, not stored.
  int computes = 0;
  ASSERT_GT(kSmallEntryBytes + HistogramCharge(128), kBudget);
  for (int i = 0; i < 2; ++i) {
    const auto big = cache.AggregateHistogram(*b, BinsKey(128), [&](size_t) {
      ++computes;
      return Ramp(128);
    });
    EXPECT_EQ(big->counts(), Ramp(128).counts());
  }
  EXPECT_EQ(computes, 2);
  stats = cache.stats();
  EXPECT_EQ(stats.bytes, kSmallEntryBytes + HistogramCharge(8));
  EXPECT_LE(stats.bytes, kBudget);
}

TEST(MaskCacheAggregateTest, RacingFillsOfOneKeyAgreeBitForBit) {
  // Threads race to fill one entry's count and histogram, each computing
  // through its own shard count. Every thread must see the serial answer,
  // and the entry must end up holding exactly one histogram.
  const Table table = CensusRows(5000, 0xACE);
  const RowMask ns =
      CompiledPredicate::Compile(Predicate::Eq("opt_in", Value(1)),
                                 table.schema())
          ->EvalMask(table);
  const HistogramQuery query{"age", *Domain1D::Numeric(0, 100, 100),
                             Predicate::Le("zip", Value(6000))};
  const PreparedHistogramQuery prepared =
      *PreparedHistogramQuery::Prepare(table, query);
  const Histogram expected_hist =
      *ComputeHistogramMasked(table, query, ns);
  RowMask expected_mask = prepared.where()->EvalMask(table);
  expected_mask.AndWith(ns);
  const size_t expected_count = expected_mask.Count();

  MaskCache cache({1 << 20, 1});
  const auto entry = Lookup(cache, *prepared.where(), 0, table.num_rows(),
                            Whole(prepared.where()->EvalMask(table)));
  const size_t bytes_before = cache.stats().bytes;

  constexpr int kThreads = 8;
  ThreadPool pool(2);
  std::atomic<int> arrived{0};
  std::vector<size_t> counts(kThreads);
  std::vector<std::shared_ptr<const Histogram>> hists(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const ParallelScanOptions scan{&pool, static_cast<size_t>(t + 1)};
      arrived.fetch_add(1);
      while (arrived.load() < kThreads) std::this_thread::yield();
      counts[t] = cache.NonSensitiveCount(*entry, [&](size_t row_begin) {
        return ParallelAndCount(entry->mask(), ns, row_begin,
                                table.num_rows(), scan);
      });
      hists[t] = cache.AggregateHistogram(
          *entry, MaskCache::HistogramKey::Of(prepared, /*non_sensitive=*/true),
          [&](size_t row_begin) {
            return ParallelAccumulateHistogram(prepared, entry->mask(), ns,
                                               row_begin, table.num_rows(),
                                               scan);
          });
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(counts[t], expected_count) << "thread " << t;
    EXPECT_EQ(hists[t]->counts(), expected_hist.counts()) << "thread " << t;
  }
  const MaskCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.aggregate_hits + stats.aggregate_misses, 2u * kThreads);
  EXPECT_EQ(stats.bytes, bytes_before + HistogramCharge(100))
      << "racing fills attached more than one histogram";
  // Settled: the next request is served from the entry.
  const auto settled = cache.AggregateHistogram(
      *entry, MaskCache::HistogramKey::Of(prepared, /*non_sensitive=*/true),
      [&](size_t) -> Histogram {
        ADD_FAILURE() << "settled histogram recomputed";
        return Histogram(100);
      });
  EXPECT_EQ(settled->counts(), expected_hist.counts());
}

TEST(MaskCacheAggregateTest, FailedFillLeavesTheEntryUsable) {
  // A fault fired while attaching, or a compute that throws (a tripped
  // deadline or cancel), stores nothing: the entry and the shard's bytes are
  // as before, and the next request computes again.
  MaskCache cache({1 << 20, 1});
  const auto entry =
      LookupKeyed(cache, 1, Canon("A"), 0, 64, Whole(PatternMask(64, 1)));
  const size_t bytes_before = cache.stats().bytes;
  int computes = 0;
  const auto count = [&] {
    return cache.NonSensitiveCount(*entry, [&](size_t) {
      ++computes;
      return size_t{4};
    });
  };
  const auto hist = [&] {
    return cache.AggregateHistogram(*entry, BinsKey(8), [&](size_t) {
      ++computes;
      return Ramp(8);
    });
  };
  {
    ScopedFault fault("mask_cache/attach", {1, 1, 2});
    EXPECT_THROW(count(), InjectedFault);
    EXPECT_THROW(hist(), InjectedFault);
  }
  EXPECT_EQ(computes, 2);
  EXPECT_EQ(cache.stats().bytes, bytes_before);
  EXPECT_THROW(cache.NonSensitiveCount(
                   *entry, [](size_t) -> size_t { throw std::runtime_error("x"); }),
               std::runtime_error);
  EXPECT_THROW(cache.AggregateHistogram(
                   *entry, BinsKey(8),
                   [](size_t) -> Histogram { throw std::runtime_error("x"); }),
               std::runtime_error);

  EXPECT_EQ(count(), 4u);
  EXPECT_EQ(hist()->counts(), Ramp(8).counts());
  EXPECT_EQ(computes, 4);
  EXPECT_EQ(count(), 4u);
  EXPECT_EQ(hist()->counts(), Ramp(8).counts());
  EXPECT_EQ(computes, 4) << "the fill after a failure was not stored";
  EXPECT_EQ(cache.stats().bytes, bytes_before + HistogramCharge(8));
}

// -------------------------------------------------- service-level battery ---

// A small pool of distinct requests so random batches repeat queries across
// sessions; index 1 is a commuted spelling of index 0 (same cache entry).
std::vector<ServiceRequest> RequestPool() {
  const Domain1D age_domain = *Domain1D::Numeric(0, 100, 16);
  const Predicate a = Predicate::Le("age", Value(40));
  const Predicate b = Predicate::Eq("opt_in", Value(1));
  std::vector<ServiceRequest> pool;
  pool.emplace_back(CountRequest{Predicate::And(a, b), 1e-4});
  pool.emplace_back(CountRequest{Predicate::And(b, a), 1e-4});
  pool.emplace_back(CountRequest{Predicate::Le("age", Value(40)), 1e-4});
  pool.emplace_back(CountRequest{
      Predicate::In("race", {Value("C1"), Value("C2")}), 1e-4});
  pool.emplace_back(
      HistogramRequest{HistogramQuery{"age", age_domain, b}, 1e-4,
                       EngineMechanism::kOsdpLaplaceL1});
  pool.emplace_back(
      HistogramRequest{HistogramQuery{"age", age_domain, std::nullopt}, 1e-4,
                       EngineMechanism::kOsdpLaplaceL1});
  pool.emplace_back(
      HistogramRequest{HistogramQuery{"age", age_domain, a}, 1e-4,
                       EngineMechanism::kLaplace});
  return pool;
}

// Drives a cache-enabled service and a cache-disabled twin through identical
// random multi-session traffic (batches drawn from RequestPool, an ingest
// between rounds) and asserts every answer pair is bit-identical. Returns
// the cached service's final stats for the caller's pressure assertions.
MaskCache::Stats RunCachedVsColdTwins(size_t rows, size_t threads,
                                      size_t cache_bytes, uint64_t rng_seed) {
  ThreadPool cached_pool(threads);
  ThreadPool cold_pool(threads);
  QueryService::Options copts;
  copts.per_session_epsilon = 1e6;
  copts.pool = &cached_pool;
  copts.num_shards = threads == 0 ? 1 : 2 * threads + 1;
  copts.mask_cache_bytes = cache_bytes;
  QueryService::Options uopts = copts;
  uopts.pool = &cold_pool;
  uopts.mask_cache_bytes = 0;

  auto cached = *QueryService::Create(CensusEngine(1e7, rows), copts);
  auto cold = *QueryService::Create(CensusEngine(1e7, rows), uopts);

  constexpr int kSessions = 3;
  std::vector<QueryService::SessionId> cached_sessions, cold_sessions;
  for (int s = 0; s < kSessions; ++s) {
    const std::string analyst = "analyst-" + std::to_string(s);
    cached_sessions.push_back(cached->OpenSession(analyst));
    cold_sessions.push_back(cold->OpenSession(analyst));
  }

  const std::vector<ServiceRequest> pool = RequestPool();
  Rng rng(rng_seed);
  for (int round = 0; round < 3; ++round) {
    for (int s = 0; s < kSessions; ++s) {
      std::vector<ServiceRequest> batch;
      const size_t len = 4 + rng.NextBounded(6);
      for (size_t q = 0; q < len; ++q) {
        batch.push_back(pool[rng.NextBounded(pool.size())]);
      }
      const auto cached_answers = cached->AnswerBatch(cached_sessions[s], batch);
      const auto cold_answers = cold->AnswerBatch(cold_sessions[s], batch);
      for (size_t q = 0; q < batch.size(); ++q) {
        EXPECT_EQ(cached_answers[q].ok(), cold_answers[q].ok());
        if (!cached_answers[q].ok() || !cold_answers[q].ok()) continue;
        const ServiceAnswer& hot = *cached_answers[q];
        const ServiceAnswer& ref = *cold_answers[q];
        EXPECT_FALSE(ref.cache_hit) << "cache-disabled twin reported a hit";
        EXPECT_EQ(hot.generation, ref.generation);
        EXPECT_EQ(hot.count, ref.count)
            << "rows=" << rows << " threads=" << threads << " round=" << round
            << " session=" << s << " q=" << q;
        EXPECT_EQ(hot.histogram.has_value(), ref.histogram.has_value());
        if (hot.histogram.has_value() && ref.histogram.has_value()) {
          EXPECT_EQ(hot.histogram->counts(), ref.histogram->counts())
              << "rows=" << rows << " threads=" << threads
              << " round=" << round << " session=" << s << " q=" << q;
        }
      }
    }
    if (round == 1) {
      // Move the dataset: both twins publish the identical next generation,
      // 77 rows (word-boundary hostile on purpose).
      const Table batch = CensusRows(77, 0xB0 + static_cast<uint64_t>(round));
      EXPECT_EQ(*cached->Ingest(batch), 1u);
      EXPECT_EQ(*cold->Ingest(batch), 1u);
    }
  }
  return cached->cache_stats();
}

TEST(MaskCacheServiceTest, CachedAnswersBitIdenticalToColdPath) {
  // The tentpole property: random batches across sessions, thread counts
  // {1, 2, 7}, and word-boundary table sizes — every cached answer equals
  // the cold-path answer bit for bit, and the cache actually served hits
  // (round 2 repeats round 1's keys against the same generation).
  for (size_t threads : {size_t{1}, size_t{2}, size_t{7}}) {
    for (size_t rows : {size_t{63}, size_t{64}, size_t{65}, size_t{1000}}) {
      const MaskCache::Stats stats = RunCachedVsColdTwins(
          rows, threads, /*cache_bytes=*/1 << 20,
          /*rng_seed=*/0xA11CE ^ (rows * 31 + threads));
      EXPECT_GT(stats.hits, 0u) << "rows=" << rows << " threads=" << threads;
    }
  }
}

TEST(MaskCacheServiceTest, GenerationIsolationAfterIngest) {
  // After an Ingest, the first query of the new generation must recompute
  // (cache_hit = false) and reflect the new snapshot: with a huge ε the
  // one-sided noise is in (-1, 0], so the answer pins the true non-sensitive
  // matching count of whichever table the mask was computed over — a stale
  // mask would be caught by value, not just by flag.
  QueryService::Options opts;
  opts.per_session_epsilon = 1e7;
  auto engine = CensusEngine(1e8, 200);
  const Policy policy = CensusPolicy();
  Table accumulated = engine.snapshot()->table;
  auto service = *QueryService::Create(std::move(engine), opts);
  const auto session = service->OpenSession("alice");
  const Predicate where = Predicate::Le("age", Value(40));

  const auto truth = [&](const Table& t) {
    RowMask m =
        CompiledPredicate::Compile(where, t.schema())->EvalMask(t);
    m.AndWith(policy.NonSensitiveRowMask(t));
    return static_cast<double>(m.Count());
  };

  const double truth0 = truth(accumulated);
  const auto a1 = *service->AnswerCount(session, where, 1e5);
  EXPECT_FALSE(a1.cache_hit);
  EXPECT_LE(a1.count, truth0);
  EXPECT_GT(a1.count, truth0 - 1.0);

  const auto a2 = *service->AnswerCount(session, where, 1e5);
  EXPECT_TRUE(a2.cache_hit) << "repeat against the same generation missed";
  EXPECT_LE(a2.count, truth0);
  EXPECT_GT(a2.count, truth0 - 1.0);

  const Table batch = CensusRows(150, 0xB1);
  ASSERT_EQ(*service->Ingest(batch), 1u);
  ASSERT_TRUE(accumulated.AppendRows(batch).ok());
  const double truth1 = truth(accumulated);
  ASSERT_NE(truth0, truth1) << "ingest batch must change the true count for "
                               "the staleness assertion to bite";

  const auto a3 = *service->AnswerCount(session, where, 1e5);
  EXPECT_FALSE(a3.cache_hit) << "first post-swap query served a stale mask";
  EXPECT_EQ(a3.generation, 1u);
  EXPECT_LE(a3.count, truth1);
  EXPECT_GT(a3.count, truth1 - 1.0);

  const auto a4 = *service->AnswerCount(session, where, 1e5);
  EXPECT_TRUE(a4.cache_hit);
  EXPECT_LE(a4.count, truth1);
  EXPECT_GT(a4.count, truth1 - 1.0);

  const MaskCache::Stats stats = service->cache_stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 2u);  // one per generation, both still live
}

TEST(MaskCacheServiceTest, LruEvictionUnderTinyBudgetStaysBitIdentical) {
  // 900 bytes per lock shard (8 × 900 over the service's 8 shards) fits
  // about one of the pool's 1000-row masks (one block) per shard, so the
  // rounds churn the LRU constantly — answers must still be bit-identical
  // to the cold twin, and eviction must actually happen.
  const MaskCache::Stats stats = RunCachedVsColdTwins(
      /*rows=*/1000, /*threads=*/2, /*cache_bytes=*/8 * 900,
      /*rng_seed=*/0x71D7);
  EXPECT_GT(stats.evictions, 0u) << "budget was not tiny enough to evict";
  EXPECT_LE(stats.bytes, 8u * 900u);
}

// ------------------------------------------------------------- extension ---

// Two generations as the service sees them: a builder seeded with `base`
// rows, then `delta` appended rows, each cut into a snapshot.
struct Generations {
  SnapshotPtr g0;
  SnapshotPtr g1;
};

Generations TwoGenerations(size_t base, size_t delta, uint64_t seed) {
  TableBuilder builder = *TableBuilder::Create(CensusRows(base, seed),
                                               CensusPolicy());
  Generations g;
  g.g0 = builder.BuildSnapshot(0);
  EXPECT_TRUE(builder.Append(CensusRows(delta, seed + 1)).ok());
  g.g1 = builder.BuildSnapshot(1);
  return g;
}

// A random WHERE clause: one comparison, or an AND / OR of two.
Predicate RandomWhere(Rng& rng) {
  const auto leaf = [&]() {
    switch (rng.NextBounded(4)) {
      case 0:
        return Predicate::Le("age", Value(static_cast<int64_t>(
                                        rng.NextBounded(100))));
      case 1:
        return Predicate::Gt("income", Value(rng.NextDouble() * 80000.0));
      case 2:
        return Predicate::Eq(
            "race", Value("C" + std::to_string(rng.NextBounded(8))));
      default:
        return Predicate::Ge("zip", Value(static_cast<int64_t>(
                                        rng.NextBounded(10000))));
    }
  };
  switch (rng.NextBounded(3)) {
    case 0:
      return leaf();
    case 1:
      return Predicate::And(leaf(), leaf());
    default:
      return Predicate::Or(leaf(), leaf());
  }
}

// What the service reads for one WHERE clause over one snapshot: the mask,
// |WHERE ∧ x_ns| and the x / x_ns histograms, each through `cache` exactly
// as QueryService asks for it. `*_begin` record the first row each
// compute was asked to start from (kNone when it never ran).
constexpr size_t kNone = ~size_t{0};
struct Served {
  RowMask mask;
  size_t count = 0;
  Histogram x{}, xns{};
  size_t scan_begin = kNone, count_begin = kNone, x_begin = kNone,
         xns_begin = kNone;
};

struct Reads {
  bool count = true, x = true, xns = true;
};

Served Serve(MaskCache& cache, const Predicate& where, const Snapshot& snap,
             const ParallelScanOptions& scan, Reads reads = {}) {
  const Table& table = snap.table;
  const size_t rows = table.num_rows();
  const HistogramQuery hq{"age", *Domain1D::Numeric(0, 100, 16), where};
  const PreparedHistogramQuery query =
      *PreparedHistogramQuery::Prepare(table, hq);
  const CompiledPredicate& pred = *query.where();
  Served out;
  const auto first = [](size_t* slot, size_t row_begin) {
    if (*slot == kNone) *slot = row_begin;
  };
  const auto entry = Lookup(
      cache, pred, snap.generation, rows, [&](size_t row_begin, RowMask* mask) {
        first(&out.scan_begin, row_begin);
        ParallelEvalMasksInto({&pred}, table, row_begin, {mask}, scan);
      });
  out.mask = entry->mask();
  if (reads.count) {
    out.count = cache.NonSensitiveCount(*entry, [&](size_t row_begin) {
      first(&out.count_begin, row_begin);
      return ParallelAndCount(entry->mask(), snap.non_sensitive, row_begin,
                              rows, scan);
    });
  }
  if (reads.x) {
    out.x = *cache.AggregateHistogram(
        *entry, MaskCache::HistogramKey::Of(query, false),
        [&](size_t row_begin) {
          first(&out.x_begin, row_begin);
          return ParallelAccumulateHistogram(query, entry->mask(), row_begin,
                                             rows, scan);
        });
  }
  if (reads.xns) {
    out.xns = *cache.AggregateHistogram(
        *entry, MaskCache::HistogramKey::Of(query, true),
        [&](size_t row_begin) {
          first(&out.xns_begin, row_begin);
          return ParallelAccumulateHistogram(
              query, entry->mask(), snap.non_sensitive, row_begin, rows, scan);
        });
  }
  return out;
}

// The cold values, serially and from scratch.
Served Cold(const Predicate& where, const Snapshot& snap) {
  const Table& table = snap.table;
  const HistogramQuery hq{"age", *Domain1D::Numeric(0, 100, 16), where};
  Served out;
  out.mask = CompiledPredicate::Compile(where, table.schema())->EvalMask(table);
  RowMask matching = out.mask;
  matching.AndWith(snap.non_sensitive);
  out.count = matching.Count();
  out.x = *ComputeHistogramMasked(table, hq, RowMask(table.num_rows(), true));
  out.xns = *ComputeHistogramMasked(table, hq, snap.non_sensitive);
  return out;
}

void ExpectSame(const Served& got, const Served& want, Reads reads,
                const std::string& where) {
  EXPECT_TRUE(got.mask == want.mask) << where;
  if (reads.count) {
    EXPECT_EQ(got.count, want.count) << where;
  }
  if (reads.x) {
    EXPECT_EQ(got.x.counts(), want.x.counts()) << where;
  }
  if (reads.xns) {
    EXPECT_EQ(got.xns.counts(), want.xns.counts()) << where;
  }
}

TEST(MaskCacheExtensionTest, ExtendedEntriesEqualAColdScanBitForBit) {
  // Base sizes with n % 64 in {0, 1, 63}, deltas of {1, 63, 64, 4097} rows,
  // shard counts {1, 2, 7}, random clauses, and a random subset of the
  // base's aggregates filled: generation 1 is built by extending generation
  // 0, and its mask, count and both histograms equal a cold scan's.
  ThreadPool pool(3);
  Rng rng(0xE7E);
  for (size_t base : {size_t{4480}, size_t{4481}, size_t{4543}}) {
    for (size_t delta : {size_t{1}, size_t{63}, size_t{64}, size_t{4097}}) {
      const Generations g = TwoGenerations(base, delta, base * 7 + delta);
      for (size_t shards : {size_t{1}, size_t{2}, size_t{7}}) {
        const ParallelScanOptions scan{&pool, shards};
        MaskCache cache({1 << 22, 2});
        for (int trial = 0; trial < 4; ++trial) {
          const Predicate where = RandomWhere(rng);
          const std::string label =
              "base=" + std::to_string(base) + " delta=" +
              std::to_string(delta) + " shards=" + std::to_string(shards) +
              " where=" + where.ToString();
          Reads filled;
          filled.count = rng.NextBounded(2) == 0;
          filled.x = rng.NextBounded(2) == 0;
          filled.xns = rng.NextBounded(2) == 0;
          const uint64_t extensions = cache.stats().extensions;
          ExpectSame(Serve(cache, where, *g.g0, scan, filled), Cold(where, *g.g0),
                     filled, label);
          const Served got = Serve(cache, where, *g.g1, scan);
          ExpectSame(got, Cold(where, *g.g1), Reads{}, label);
          EXPECT_EQ(cache.stats().extensions, extensions + 1) << label;
          // Only the appended rows were scanned, and each seeded aggregate
          // covered only the rows past the base.
          EXPECT_EQ(got.scan_begin, base & ~size_t{63}) << label;
          EXPECT_EQ(got.count_begin, filled.count ? base : 0) << label;
          EXPECT_EQ(got.x_begin, filled.x ? base : 0) << label;
          EXPECT_EQ(got.xns_begin, filled.xns ? base : 0) << label;
        }
      }
    }
  }
}

TEST(MaskCacheExtensionTest, DisabledCacheNeverExtends) {
  ThreadPool pool(2);
  const Generations g = TwoGenerations(4481, 63, 0xD15);
  MaskCache cache({0, 2});
  const Predicate where = Predicate::Le("age", Value(40));
  Serve(cache, where, *g.g0, {&pool, 2});
  const Served got = Serve(cache, where, *g.g1, {&pool, 2});
  ExpectSame(got, Cold(where, *g.g1), Reads{}, "disabled");
  EXPECT_EQ(got.scan_begin, 0u);
  EXPECT_EQ(got.count_begin, 0u);
  EXPECT_EQ(cache.stats().extensions, 0u);
}

TEST(MaskCacheExtensionTest, BaseEvictedMidExtensionStillExtendsExactly) {
  // The base is evicted while the extension scans (the scan itself inserts
  // an entry that fills the shard): the pinned base still supplies its
  // words and seeds, the result equals a cold scan, and the base is gone.
  ThreadPool pool(2);
  const Generations g = TwoGenerations(4481, 4097, 0xE71);
  const Predicate where = Predicate::Gt("income", Value(30000.0));
  constexpr size_t kBudget = 8192;
  MaskCache cache({kBudget, 1});
  const ParallelScanOptions scan{&pool, 2};
  Serve(cache, where, *g.g0, scan);
  ASSERT_EQ(cache.stats().entries, 1u);

  const HistogramQuery hq{"age", *Domain1D::Numeric(0, 100, 16), where};
  const PreparedHistogramQuery query =
      *PreparedHistogramQuery::Prepare(g.g1->table, hq);
  const CompiledPredicate& pred = *query.where();
  const size_t rows = g.g1->table.num_rows();
  // A filler mask whose entry takes most of the shard on its own: 14
  // written blocks of 512 bytes.
  RowMask filler(14 * kChunkRows);
  filler.PrepareWrite(0, filler.size());
  ASSERT_LT(filler.HeapBytes(), kBudget - 400);
  ASSERT_GT(filler.HeapBytes(), kBudget - 1200);
  size_t scan_begin = kNone;
  const auto entry = Lookup(
      cache, pred, 1, rows, [&](size_t row_begin, RowMask* out) {
        scan_begin = row_begin;
        cache.LookupOrComputeKeyed(pred.Fingerprint() + 1, Canon("filler"), 0,
                                   [&] { return filler; });
        EXPECT_EQ(cache.stats().evictions, 1u) << "the base was not evicted";
        ParallelEvalMasksInto({&pred}, g.g1->table, row_begin, {out}, scan);
      });
  EXPECT_EQ(scan_begin, 4480u);
  EXPECT_EQ(cache.stats().extensions, 1u);
  size_t count_begin = kNone;
  const size_t count = cache.NonSensitiveCount(*entry, [&](size_t row_begin) {
    count_begin = row_begin;
    return ParallelAndCount(entry->mask(), g.g1->non_sensitive, row_begin,
                            rows, scan);
  });
  EXPECT_EQ(count_begin, 4481u) << "the evicted base's count seed was lost";
  const Served cold = Cold(where, *g.g1);
  EXPECT_TRUE(entry->mask() == cold.mask);
  EXPECT_EQ(count, cold.count);
  const auto xns = cache.AggregateHistogram(
      *entry, MaskCache::HistogramKey::Of(query, true), [&](size_t row_begin) {
        EXPECT_EQ(row_begin, 4481u);
        return ParallelAccumulateHistogram(query, entry->mask(),
                                           g.g1->non_sensitive, row_begin,
                                           rows, scan);
      });
  EXPECT_EQ(xns->counts(), cold.xns.counts());

  // Generation 0 is no longer resident, and generation 1 is newer than it,
  // so looking it up again scans from scratch.
  EXPECT_EQ(Serve(cache, where, *g.g0, scan).scan_begin, 0u);
}

TEST(MaskCacheExtensionTest, FingerprintCollisionIsNeverABase) {
  // An older entry under the same fingerprint but different canonical bytes
  // is another clause: the lookup scans from row 0 and extends nothing.
  MaskCache cache({1 << 20, 1});
  const auto older = LookupKeyed(cache, 77, Canon("clause A"), 0, 128,
                                 Whole(PatternMask(128, 1)));
  cache.NonSensitiveCount(*older, [](size_t) { return size_t{5}; });
  size_t scan_begin = kNone;
  const auto entry = LookupKeyed(cache, 77, Canon("clause B"), 1, 200,
                                 [&](size_t row_begin, RowMask* out) {
                                   scan_begin = row_begin;
                                   *out = PatternMask(200, 2);
                                 });
  EXPECT_EQ(scan_begin, 0u);
  EXPECT_TRUE(entry->mask() == PatternMask(200, 2));
  EXPECT_EQ(cache.NonSensitiveCount(*entry,
                                    [](size_t row_begin) {
                                      EXPECT_EQ(row_begin, 0u);
                                      return size_t{9};
                                    }),
            9u);
  EXPECT_EQ(cache.stats().extensions, 0u);
}

TEST(MaskCacheExtensionTest, OnlyTheNewestOlderGenerationIsABase) {
  // A batch that captured generation 4 after generation 5 was cached must
  // not extend 5 backwards; a lookup of generation 6 extends 5, not 2.
  MaskCache cache({1 << 20, 1});
  const auto canon = Canon("clause");
  // Generation 5 first, so generation 2 has only a newer entry beside it.
  LookupKeyed(cache, 9, canon, 5, 300, Whole(PatternMask(300, 3)));
  LookupKeyed(cache, 9, canon, 2, 100, Whole(PatternMask(100, 3)));
  size_t scan_begin = kNone;
  const auto record = [&](size_t rows) {
    return [&scan_begin, rows](size_t row_begin, RowMask* out) {
      scan_begin = row_begin;
      // Fill only the words the scan owns, as a real range scan does.
      const RowMask full = PatternMask(rows, 3);
      CopyWordsFrom(full, row_begin, out);
    };
  };
  auto entry = LookupKeyed(cache, 9, canon, 4, 200, record(200));
  EXPECT_EQ(scan_begin, 64u) << "generation 4 did not extend generation 2";
  EXPECT_TRUE(entry->mask() == PatternMask(200, 3));
  entry = LookupKeyed(cache, 9, canon, 6, 450, record(450));
  EXPECT_EQ(scan_begin, 256u) << "generation 6 did not extend generation 5";
  EXPECT_TRUE(entry->mask() == PatternMask(450, 3));
  EXPECT_EQ(cache.stats().extensions, 2u);

  // The generation decides, not the size: a newer entry that would fit is
  // still never a base.
  MaskCache fresh({1 << 20, 1});
  LookupKeyed(fresh, 9, canon, 5, 100, Whole(PatternMask(100, 3)));
  LookupKeyed(fresh, 9, canon, 4, 100, record(100));
  EXPECT_EQ(scan_begin, 0u) << "generation 4 extended generation 5";
  EXPECT_EQ(fresh.stats().extensions, 0u);
}

// ---------------------------------------------------------- batch lookup ---

// Fills words from row_begin on with PatternMask(rows, seed), as a real range
// scan does. PatternMask's bit i depends on i alone, so one seed's masks at
// growing sizes extend each other as generations do.
void FillPattern(size_t row_begin, uint64_t seed, RowMask* out) {
  CopyWordsFrom(PatternMask(out->size(), seed), row_begin, out);
}

// One BatchScan call: the row it started at and the clauses it built.
struct ScanCall {
  size_t row_begin;
  std::vector<size_t> which;
  bool operator==(const ScanCall& other) const {
    return row_begin == other.row_begin && which == other.which;
  }
};

// A BatchScan that fills clause c with pattern seeds[c] and logs each call.
MaskCache::BatchScan PatternScan(std::vector<uint64_t> seeds,
                                 std::vector<ScanCall>* calls) {
  return [seeds, calls](size_t row_begin, const std::vector<size_t>& which,
                        const std::vector<RowMask*>& outs) {
    calls->push_back({row_begin, which});
    for (size_t k = 0; k < which.size(); ++k) {
      FillPattern(row_begin, seeds[which[k]], outs[k]);
    }
  };
}

RangeScan PatternRange(uint64_t seed) {
  return [seed](size_t row_begin, RowMask* out) {
    FillPattern(row_begin, seed, out);
  };
}

MaskCache::Clause KeyOf(const std::string& canonical) {
  return {std::hash<std::string>{}(canonical), Canon(canonical)};
}

void ExpectSameCounters(const MaskCache::Stats& got,
                        const MaskCache::Stats& want) {
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_EQ(got.extensions, want.extensions);
  EXPECT_EQ(got.evictions, want.evictions);
  EXPECT_EQ(got.entries, want.entries);
  EXPECT_EQ(got.bytes, want.bytes);
}

TEST(MaskCacheBatchTest, EqualsOneLookupPerClauseInOrder) {
  // Hits, extensions, cold misses and a repeat in one call: the counters,
  // the entries' masks, their seeds and the hit flags equal those of a twin
  // cache that looks the clauses up one at a time, in order.
  MaskCache batch({1 << 20, 2});
  MaskCache serial({1 << 20, 2});
  for (MaskCache* cache : {&batch, &serial}) {
    for (uint64_t c : {0, 1}) {
      const auto old = LookupKeyed(
          *cache, KeyOf("c" + std::to_string(c)).fingerprint,
          KeyOf("c" + std::to_string(c)).canonical, 0, 100, PatternRange(c));
      cache->NonSensitiveCount(*old, [c](size_t) { return size_t{10 + c}; });
    }
    LookupKeyed(*cache, KeyOf("c2").fingerprint, KeyOf("c2").canonical, 1,
                200, PatternRange(2));
  }
  // c0 and c1 extend generation 0, c2 hits, c3 and c4 are cold, and the
  // second c0 repeats the first.
  const std::vector<uint64_t> seeds = {0, 2, 3, 0, 1, 4};
  std::vector<MaskCache::Clause> clauses;
  for (uint64_t seed : seeds) {
    clauses.push_back(KeyOf("c" + std::to_string(seed)));
  }
  std::vector<ScanCall> calls;
  const std::vector<MaskCache::Found> found =
      batch.LookupManyKeyed(clauses, 1, 200, PatternScan(seeds, &calls));
  EXPECT_EQ(calls, (std::vector<ScanCall>{{64, {0, 4}}, {0, {2, 5}}}));

  ASSERT_EQ(found.size(), seeds.size());
  for (size_t i = 0; i < seeds.size(); ++i) {
    bool hit = false;
    const auto want =
        LookupKeyed(serial, clauses[i].fingerprint, clauses[i].canonical, 1,
                    200, PatternRange(seeds[i]), &hit);
    ASSERT_NE(found[i].entry, nullptr) << "clause " << i;
    EXPECT_EQ(found[i].error, nullptr) << "clause " << i;
    EXPECT_EQ(found[i].cache_hit, hit) << "clause " << i;
    EXPECT_TRUE(found[i].entry->mask() == want->mask()) << "clause " << i;
    EXPECT_TRUE(found[i].entry->mask() == PatternMask(200, seeds[i]))
        << "clause " << i;
  }
  EXPECT_EQ(found[3].entry, found[0].entry) << "a repeat built its own entry";
  ExpectSameCounters(batch.stats(), serial.stats());
  EXPECT_EQ(batch.stats().extensions, 2u);

  // An extension carries its base's count seed: only the appended rows are
  // counted.
  size_t count_begin = kNone;
  EXPECT_EQ(batch.NonSensitiveCount(*found[4].entry,
                                    [&](size_t row_begin) {
                                      count_begin = row_begin;
                                      return size_t{5};
                                    }),
            16u);
  EXPECT_EQ(count_begin, 100u);
}

TEST(MaskCacheBatchTest, RepeatedClauseIsScannedOnce) {
  MaskCache cache({1 << 20, 4});
  std::vector<ScanCall> calls;
  const auto found = cache.LookupManyKeyed(
      {KeyOf("A"), KeyOf("B"), KeyOf("A"), KeyOf("A")}, 0, 130,
      PatternScan({1, 2, 1, 1}, &calls));
  EXPECT_EQ(calls, (std::vector<ScanCall>{{0, {0, 1}}}));
  EXPECT_FALSE(found[0].cache_hit);
  EXPECT_FALSE(found[1].cache_hit);
  for (size_t i : {2, 3}) {
    EXPECT_TRUE(found[i].cache_hit);
    EXPECT_EQ(found[i].entry, found[0].entry);
  }
  const MaskCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(MaskCacheBatchTest, CollidingKeysNeverShareAnEntryOrABase) {
  // Three clauses under one fingerprint: "pred A" extends its own older
  // entry; "pred B" and "pred C", which collide with it, scan from row 0 and
  // get entries of their own; the repeat of "pred B" shares B's, not A's.
  MaskCache cache({1 << 20, 1});
  const auto key = [](const std::string& canonical) {
    return MaskCache::Clause{42, Canon(canonical)};
  };
  LookupKeyed(cache, 42, Canon("pred A"), 0, 100, PatternRange(1));
  std::vector<ScanCall> calls;
  const auto found = cache.LookupManyKeyed(
      {key("pred B"), key("pred A"), key("pred C"), key("pred B")}, 1, 200,
      PatternScan({2, 1, 3, 2}, &calls));
  EXPECT_EQ(calls, (std::vector<ScanCall>{{0, {0, 2}}, {64, {1}}}));
  EXPECT_TRUE(found[0].entry->mask() == PatternMask(200, 2));
  EXPECT_TRUE(found[1].entry->mask() == PatternMask(200, 1));
  EXPECT_TRUE(found[2].entry->mask() == PatternMask(200, 3));
  EXPECT_NE(found[0].entry, found[1].entry);
  EXPECT_NE(found[0].entry, found[2].entry);
  EXPECT_EQ(found[3].entry, found[0].entry);
  EXPECT_TRUE(found[3].cache_hit);
  const MaskCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.extensions, 1u);
  EXPECT_EQ(stats.entries, 4u);
}

TEST(MaskCacheBatchTest, EachStartingRowIsScannedOnce) {
  // A cold miss and extensions from two different bases in one call: one
  // scan per starting row, each covering exactly its clauses.
  MaskCache cache({1 << 20, 2});
  LookupKeyed(cache, KeyOf("A").fingerprint, KeyOf("A").canonical, 0, 100,
              PatternRange(1));
  LookupKeyed(cache, KeyOf("E").fingerprint, KeyOf("E").canonical, 0, 100,
              PatternRange(5));
  LookupKeyed(cache, KeyOf("B").fingerprint, KeyOf("B").canonical, 1, 300,
              PatternRange(2));
  const std::vector<uint64_t> seeds = {1, 2, 3, 4, 5};
  std::vector<ScanCall> calls;
  const auto found = cache.LookupManyKeyed(
      {KeyOf("A"), KeyOf("B"), KeyOf("C"), KeyOf("D"), KeyOf("E")}, 2, 500,
      PatternScan(seeds, &calls));
  EXPECT_EQ(calls, (std::vector<ScanCall>{
                       {64, {0, 4}}, {256, {1}}, {0, {2, 3}}}));
  for (size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_FALSE(found[i].cache_hit);
    EXPECT_TRUE(found[i].entry->mask() == PatternMask(500, seeds[i]))
        << "clause " << i;
  }
  EXPECT_EQ(cache.stats().extensions, 3u);
  EXPECT_EQ(cache.stats().misses, 3u + 5u);
}

TEST(MaskCacheBatchTest, DisabledCacheServesUncachedEntries) {
  MaskCache cache({0, 4});
  std::vector<ScanCall> calls;
  const auto found = cache.LookupManyKeyed(
      {KeyOf("A"), KeyOf("B"), KeyOf("A")}, 0, 100,
      PatternScan({1, 2, 1}, &calls));
  EXPECT_EQ(calls, (std::vector<ScanCall>{{0, {0, 1}}}));
  int computes = 0;
  for (size_t i = 0; i < found.size(); ++i) {
    EXPECT_FALSE(found[i].cache_hit);
    EXPECT_TRUE(found[i].entry->mask() ==
                PatternMask(100, i == 1 ? 2 : 1));
    cache.NonSensitiveCount(*found[i].entry, [&](size_t) {
      ++computes;
      return size_t{1};
    });
  }
  EXPECT_EQ(computes, 3) << "an uncached entry stored an aggregate";
  const MaskCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.entries + stats.bytes, 0u);
}

TEST(MaskCacheBatchTest, InsertFaultFailsOnlyItsClause) {
  // The second insert fires: that clause — and its repeat — fail with the
  // injected fault and store nothing; the clauses around it are cached.
  MaskCache cache({1 << 20, 2});
  std::vector<ScanCall> calls;
  std::vector<MaskCache::Found> found;
  {
    ScopedFault fault("mask_cache/insert", {2, 0, 1});
    found = cache.LookupManyKeyed(
        {KeyOf("A"), KeyOf("B"), KeyOf("C"), KeyOf("B")}, 0, 100,
        PatternScan({1, 2, 3, 2}, &calls));
  }
  for (size_t i : {1, 3}) {
    EXPECT_EQ(found[i].entry, nullptr);
    ASSERT_NE(found[i].error, nullptr);
    EXPECT_THROW(std::rethrow_exception(found[i].error), InjectedFault);
  }
  for (size_t i : {0, 2}) {
    EXPECT_EQ(found[i].error, nullptr);
    EXPECT_TRUE(found[i].entry->mask() == PatternMask(100, i + 1));
  }
  EXPECT_EQ(cache.stats().entries, 2u);
  bool hit = true;
  LookupKeyed(cache, KeyOf("B").fingerprint, KeyOf("B").canonical, 0, 100,
              PatternRange(2), &hit);
  EXPECT_FALSE(hit) << "the failed insert stored an entry";
}

TEST(MaskCacheBatchTest, ThrowingScanFailsOnlyTheClausesItCovers) {
  // The cold group's scan throws; the extension group's clause is built and
  // cached, and the one-clause Lookup rethrows the same failure.
  MaskCache cache({1 << 20, 2});
  LookupKeyed(cache, KeyOf("A").fingerprint, KeyOf("A").canonical, 0, 100,
              PatternRange(1));
  const auto found = cache.LookupManyKeyed(
      {KeyOf("B"), KeyOf("A"), KeyOf("C")}, 1, 200,
      [](size_t row_begin, const std::vector<size_t>& which,
         const std::vector<RowMask*>& outs) {
        if (row_begin == 0) throw std::runtime_error("scan failed");
        ASSERT_EQ(which, std::vector<size_t>{1});
        FillPattern(row_begin, 1, outs[0]);
      });
  EXPECT_NE(found[0].error, nullptr);
  EXPECT_NE(found[2].error, nullptr);
  ASSERT_EQ(found[1].error, nullptr);
  EXPECT_TRUE(found[1].entry->mask() == PatternMask(200, 1));
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_THROW(LookupKeyed(cache, KeyOf("B").fingerprint, KeyOf("B").canonical,
                           1, 200,
                           [](size_t, RowMask*) {
                             throw std::runtime_error("scan failed");
                           }),
               std::runtime_error);
}

}  // namespace
}  // namespace osdp
