// Tests for the parallel execution runtime: the ThreadPool substrate and the
// sharded scan drivers.
//
// The load-bearing property is *bit-identity*: every sharded operation must
// equal its serial counterpart exactly — same mask words, same histogram
// doubles — at every shard count, on table sizes straddling 64-bit word
// boundaries. The randomized suites below pin that across predicate shapes
// drawn from every compiled-op kind.

#include <atomic>
#include <chrono>
#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/benchdata/table_gen.h"
#include "src/common/cancel.h"
#include "src/common/random.h"
#include "src/data/compiled_predicate.h"
#include "src/data/predicate.h"
#include "src/data/row_mask.h"
#include "src/hist/histogram_query.h"
#include "src/runtime/parallel_scan.h"
#include "src/runtime/thread_pool.h"
#include "tests/table_rows.h"
#include "tests/reference_predicate.h"

namespace osdp {
namespace {

// Sizes chosen to straddle word boundaries: below, at, and just past one
// word, two words, and the shard-grain scale.
const size_t kBoundarySizes[] = {1, 63, 64, 65, 127, 128, 129, 1000, 4113};

// Shard counts from the issue's acceptance grid, including "more shards
// than rows have words".
const size_t kShardCounts[] = {1, 2, 7, 64};

TEST(ThreadPoolTest, SubmitRunsEveryTask) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1); });
  }
  // ParallelForBlocked drains through the same queue, so after it returns
  // with its own chunks done, waiting for the counter is just a formality.
  while (ran.load() < 100) std::this_thread::yield();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolTest, InlinePoolRunsSubmitInline) {
  ThreadPool pool(0);
  int ran = 0;
  pool.Submit([&ran] { ++ran; });
  EXPECT_EQ(ran, 1);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{64}, size_t{1000}}) {
    for (size_t chunk : {size_t{1}, size_t{3}, size_t{64}, size_t{2000}}) {
      std::vector<std::atomic<int>> hits(n);
      pool.ParallelForBlocked(0, n, chunk, [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
      });
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " chunk=" << chunk
                                     << " i=" << i;
      }
    }
  }
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // A pool task that itself runs a ParallelForBlocked on the same pool —
  // the QueryService shape (parallel batch, sharded scans inside). With a
  // single worker this deadlocks unless the calling thread participates.
  ThreadPool pool(1);
  std::atomic<int> total{0};
  pool.ParallelForBlocked(0, 4, 1, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      pool.ParallelForBlocked(0, 8, 1, [&](size_t ilo, size_t ihi) {
        total.fetch_add(static_cast<int>(ihi - ilo));
      });
    }
  });
  EXPECT_EQ(total.load(), 4 * 8);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasksBeforeJoining) {
  // Submit far more (briefly blocking) tasks than workers, then destroy the
  // pool immediately: every queued task must still run — the destructor
  // drains the queue rather than dropping it on the floor.
  constexpr int kTasks = 200;
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < kTasks; ++i) {
      pool.Submit([&ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(10));
        ran.fetch_add(1);
      });
    }
  }
  EXPECT_EQ(ran.load(), kTasks);
}

TEST(ThreadPoolTest, ParallelForRethrowsChunkExceptionAndPoolSurvives) {
  // A chunk that throws must surface in the *calling* thread as an ordinary
  // exception — never std::terminate — with the pool fully usable after.
  // Same contract on the inline pool, where the exception propagates
  // directly out of the serial loop.
  for (size_t threads : {size_t{0}, size_t{3}}) {
    ThreadPool pool(threads);
    bool caught = false;
    try {
      pool.ParallelForBlocked(0, 64, 1, [](size_t lo, size_t) {
        if (lo == 7) throw std::runtime_error("chunk 7 failed");
      });
    } catch (const std::runtime_error& e) {
      caught = true;
      EXPECT_STREQ(e.what(), "chunk 7 failed") << "threads=" << threads;
    }
    EXPECT_TRUE(caught) << "threads=" << threads;

    // The barrier completed and the workers survived: the next loop over
    // the same pool covers its whole range exactly once.
    std::atomic<size_t> covered{0};
    pool.ParallelForBlocked(0, 128, 8, [&](size_t lo, size_t hi) {
      covered.fetch_add(hi - lo);
    });
    EXPECT_EQ(covered.load(), 128u) << "threads=" << threads;
  }
}

TEST(ThreadPoolTest, NestedParallelForInnerExceptionStaysInner) {
  // An exception in a nested loop's chunk is rethrown at the *inner* call
  // site (running on a pool worker or the outer caller), where ordinary
  // try/catch handles it; the outer loop completes normally. Each inner
  // loop throws deterministically in the chunk covering index 2.
  ThreadPool pool(2);
  std::atomic<int> inner_failures{0};
  std::atomic<int> outer_iterations{0};
  pool.ParallelForBlocked(0, 4, 1, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      try {
        pool.ParallelForBlocked(0, 4, 1, [](size_t ilo, size_t) {
          if (ilo == 2) throw std::runtime_error("inner");
        });
      } catch (const std::runtime_error&) {
        inner_failures.fetch_add(1);
      }
      outer_iterations.fetch_add(1);
    }
  });
  EXPECT_EQ(outer_iterations.load(), 4);
  EXPECT_EQ(inner_failures.load(), 4);
}

// Busy-waits for `micros` microseconds: chunk work that holds its thread.
void Spin(int micros) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::microseconds(micros);
  while (std::chrono::steady_clock::now() < until) {
  }
}

TEST(ThreadPoolTest, UtilizationCountsNoCallerRunLoops) {
  // Loops a caller runs serially (one chunk each) keep the worker idle, so
  // the worker-capacity gauge reads exactly 0.
  ThreadPool pool(1);
  pool.set_metrics_enabled(true);
  for (int i = 0; i < 20; ++i) {
    pool.ParallelForBlocked(0, 1, 1, [](size_t, size_t) { Spin(500); });
  }
  const ThreadPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.parallel_fors, 20u);
  EXPECT_EQ(stats.chunks_executed, 20u);
  EXPECT_EQ(stats.tasks_submitted, 0u);
  EXPECT_EQ(stats.utilization, 0.0);
}

TEST(ThreadPoolTest, UtilizationStaysWithinWorkerCapacity) {
  // Four callers drain their own chunks beside one worker: the callers'
  // time is up to four times the pool's lifetime, the worker's at most one.
  ThreadPool pool(1);
  pool.set_metrics_enabled(true);
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&pool] {
      for (int i = 0; i < 10; ++i) {
        pool.ParallelForBlocked(0, 8, 1, [](size_t, size_t) { Spin(200); });
      }
    });
  }
  for (std::thread& t : callers) t.join();
  // Every loop submitted one helper task; a helper can still be queued when
  // its caller has drained every chunk itself, so wait for the worker to
  // run them all before reading its time.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  ThreadPool::Stats stats = pool.stats();
  while (stats.tasks_executed < stats.tasks_submitted &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stats = pool.stats();
  }
  EXPECT_EQ(stats.tasks_submitted, 40u);
  EXPECT_EQ(stats.tasks_executed, stats.tasks_submitted);
  EXPECT_GT(stats.utilization, 0.0);
  EXPECT_LE(stats.utilization, 1.0);
}

TEST(ParseNumThreadsTest, RejectsUnparsableValuesInsteadOfSilentZero) {
  constexpr size_t kFallback = 11;
  // The regression this pins: atoll("garbage") is 0, which silently turned a
  // typo in OSDP_NUM_THREADS into the serial pool. Unparsable now means the
  // fallback (hardware concurrency in Default()), not 0.
  EXPECT_EQ(ParseNumThreads("garbage", kFallback), kFallback);
  EXPECT_EQ(ParseNumThreads("", kFallback), kFallback);
  EXPECT_EQ(ParseNumThreads("  ", kFallback), kFallback);
  EXPECT_EQ(ParseNumThreads("16abc", kFallback), kFallback);
  EXPECT_EQ(ParseNumThreads("2.5", kFallback), kFallback);
  EXPECT_EQ(ParseNumThreads("0x4", kFallback), kFallback);
  EXPECT_EQ(ParseNumThreads("99999999999999999999999", kFallback), kFallback);
  EXPECT_EQ(ParseNumThreads(nullptr, kFallback), kFallback);

  // Well-formed values parse exactly; negatives clamp to the inline pool.
  EXPECT_EQ(ParseNumThreads("4", kFallback), 4u);
  EXPECT_EQ(ParseNumThreads(" 8 ", kFallback), 8u);
  EXPECT_EQ(ParseNumThreads("0", kFallback), 0u);
  EXPECT_EQ(ParseNumThreads("-1", kFallback), 0u);
  EXPECT_EQ(ParseNumThreads("-99", kFallback), 0u);
}

TEST(AlignedShardsTest, WordEdgesAreAlignedAndCoverEverything) {
  for (size_t rows : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                      size_t{65}, size_t{1000}, size_t{100000}}) {
    for (size_t shards : {size_t{1}, size_t{2}, size_t{7}, size_t{64}}) {
      const std::vector<size_t> edges = AlignedShards(rows, shards, 64);
      ASSERT_GE(edges.size(), 2u);
      EXPECT_EQ(edges.front(), 0u);
      EXPECT_EQ(edges.back(), rows);
      for (size_t i = 1; i < edges.size(); ++i) {
        EXPECT_LE(edges[i - 1], edges[i]);
        if (i + 1 < edges.size()) {
          EXPECT_EQ(edges[i] % 64, 0u) << "interior edge must be word-aligned";
        }
      }
    }
  }
}

// Predicate shapes covering every compiled op kind: numeric cmp on int64 and
// double columns, string cmp, IN over both, AND/OR/NOT nesting, constants.
std::vector<Predicate> TestPredicates() {
  std::vector<Predicate> preds;
  preds.push_back(Predicate::Le("age", Value(40)));
  preds.push_back(Predicate::Gt("income", Value(30000.0)));
  preds.push_back(Predicate::Eq("race", Value("C3")));
  preds.push_back(Predicate::In("race", {Value("C1"), Value("C2")}));
  preds.push_back(Predicate::In("zip", {Value(17), Value(4242), Value(9999)}));
  preds.push_back(Predicate::Not(Predicate::Lt("zip", Value(2000))));
  preds.push_back(
      Predicate::And(Predicate::Or(Predicate::Eq("race", Value("C0")),
                                   Predicate::Eq("opt_in", Value(0))),
                     Predicate::Le("age", Value(40))));
  preds.push_back(Predicate::True());
  preds.push_back(Predicate::False());
  return preds;
}

Table TableOfSize(size_t rows, uint64_t seed) {
  CensusTableOptions opts;
  opts.num_rows = rows;
  opts.seed = seed;
  return MakeCensusTable(opts);
}

TEST(ParallelScanTest, EvalRangeIntoAssemblesTheFullMask) {
  const Table table = TableOfSize(200, 0xE1);
  const CompiledPredicate pred = *CompiledPredicate::Compile(
      Predicate::Le("age", Value(40)), table.schema());
  const RowMask serial = pred.EvalMask(table);

  RowMask assembled(table.num_rows());
  pred.EvalRangeInto(table, 0, 64, &assembled);
  pred.EvalRangeInto(table, 64, 192, &assembled);
  pred.EvalRangeInto(table, 192, 200, &assembled);
  EXPECT_TRUE(assembled == serial);
}

TEST(ParallelScanTest, ShardedEvalMaskBitIdenticalToSerial) {
  ThreadPool pool(3);
  for (size_t rows : kBoundarySizes) {
    const Table table = TableOfSize(rows, 0xA0 + rows);
    for (const Predicate& pred : TestPredicates()) {
      const CompiledPredicate compiled =
          *CompiledPredicate::Compile(pred, table.schema());
      const RowMask serial = compiled.EvalMask(table);
      for (size_t shards : kShardCounts) {
        const RowMask parallel =
            ParallelEvalMask(compiled, table, {&pool, shards});
        ASSERT_TRUE(parallel == serial)
            << "rows=" << rows << " shards=" << shards;
      }
    }
  }
}

// ------------------------------------------ frame-of-reference chunks ---
//
// A sealed int64 chunk is stored as its minimum plus offsets at the narrowest
// width that holds max - min, and the scan rebases each int leg onto that
// frame. These chunks sit on every edge the encoding and the rebase have:
// INT64_MIN/MAX, ranges at the width edges 255/256, 65535/65536 and 2^32,
// all-equal chunks, negatives, and a raw tail; the literals put intervals
// below, above, across, inside and around each chunk.

struct ForChunkSpec {
  int64_t min;
  uint64_t range;  // max - min
  size_t width;    // the offset bytes the chunk must seal to
};

const std::vector<ForChunkSpec>& ForChunkSpecs() {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  static const std::vector<ForChunkSpec> kSpecs = {
      {kMin, 0, 1},
      {kMax, 0, 1},
      {kMin, ~uint64_t{0}, 8},
      {kMin, 300, 2},
      {kMax - 70000, 70000, 4},
      {-100, 255, 1},
      {-100, 256, 2},
      {1000, 65535, 2},
      {1000, 65536, 4},
      {-7, (uint64_t{1} << 32) - 1, 4},
      {-7, uint64_t{1} << 32, 8},
      {0, 0, 1},
      {-5000, 4999, 2},
  };
  return kSpecs;
}

// A chunk of `spec`: its min and max, offsets 1 and 2 from each end, and
// random offsets in between.
std::vector<int64_t> ForChunkCells(const ForChunkSpec& spec, Rng& rng) {
  std::vector<int64_t> cells(kChunkRows);
  const auto base = static_cast<uint64_t>(spec.min);
  for (size_t i = 0; i < kChunkRows; ++i) {
    uint64_t off = 0;
    switch (rng.NextBounded(4)) {
      case 0:
        off = std::min<uint64_t>(spec.range, rng.NextBounded(3));
        break;
      case 1:
        off = spec.range - std::min<uint64_t>(spec.range, rng.NextBounded(3));
        break;
      default:
        off = spec.range == ~uint64_t{0} ? rng.Next()
                                         : rng.Next() % (spec.range + 1);
    }
    cells[i] = static_cast<int64_t>(base + off);
  }
  cells[0] = spec.min;
  cells[1] = static_cast<int64_t>(base + spec.range);
  return cells;
}

// Each literal at and one either side of every chunk's min and max, and its
// midpoint, as the int64 literal a query would carry.
std::vector<int64_t> ForChunkLiterals() {
  std::vector<int64_t> lits;
  for (const ForChunkSpec& spec : ForChunkSpecs()) {
    const auto base = static_cast<uint64_t>(spec.min);
    for (uint64_t end : {base, base + spec.range}) {
      for (uint64_t delta : {~uint64_t{0}, uint64_t{0}, uint64_t{1}}) {
        lits.push_back(static_cast<int64_t>(end + delta));
      }
    }
    lits.push_back(static_cast<int64_t>(base + spec.range / 2));
  }
  return lits;
}

TEST(ParallelScanTest, FrameOfReferenceChunksMatchTheReferenceAtEveryShard) {
  Rng rng(0xF0C);
  std::vector<int64_t> v;
  std::vector<int64_t> w;
  for (const ForChunkSpec& spec : ForChunkSpecs()) {
    const std::vector<int64_t> cells = ForChunkCells(spec, rng);
    v.insert(v.end(), cells.begin(), cells.end());
  }
  // A raw tail mixing the edges of every chunk.
  for (size_t i = 0; i < 77; ++i) {
    v.push_back(v[rng.NextBounded(v.size())]);
  }
  // w: small values whose chunks seal to one byte, or to two when the
  // chunk draws a 300.
  for (size_t i = 0; i < v.size(); ++i) {
    w.push_back(rng.NextBernoulli(0.001) ? 300
                                         : static_cast<int64_t>(
                                               rng.NextBounded(200)) - 50);
  }
  const Schema schema({{"v", ValueType::kInt64}, {"w", ValueType::kInt64}});
  const Table table = *Table::FromColumns(schema, {v, w});

  // Cells read back exactly, and each sealed chunk took the narrowest width.
  const ChunkedColumn<int64_t>& col = table.Int64Column(0);
  for (size_t r = 0; r < v.size(); ++r) ASSERT_EQ(col[r], v[r]) << "row " << r;
  ASSERT_EQ(ColumnCells(col), v);
  size_t chunk = 0;
  col.ForEachSpan(0, col.size(), [&](const auto& cells, size_t begin,
                                     size_t len) {
    const size_t width = sizeof(typename std::decay_t<decltype(cells)>::Offset);
    const bool sealed = chunk < ForChunkSpecs().size();
    EXPECT_EQ(width, sealed ? ForChunkSpecs()[chunk].width : 8u)
        << "chunk " << chunk;
    for (size_t i = 0; i < len; ++i) ASSERT_EQ(cells[i], v[begin + i]);
    ++chunk;
  });
  ASSERT_EQ(chunk, ForChunkSpecs().size() + 1);

  std::vector<Row> rows(v.size());
  for (size_t r = 0; r < v.size(); ++r) rows[r] = {Value(v[r]), Value(w[r])};

  const std::vector<int64_t> lits = ForChunkLiterals();
  std::vector<Predicate> preds;
  using Leaf = Predicate (*)(std::string, Value);
  const Leaf kLeaves[] = {Predicate::Eq, Predicate::Ne, Predicate::Lt,
                          Predicate::Le, Predicate::Gt, Predicate::Ge};
  for (int64_t lit : lits) {
    preds.push_back(kLeaves[rng.NextBounded(6)]("v", Value(lit)));
  }
  for (size_t i = 0; i < 60; ++i) {
    const int64_t a = lits[rng.NextBounded(lits.size())];
    const int64_t b = lits[rng.NextBounded(lits.size())];
    // An interval on v (merged into one leg), its != complement, and a
    // two-column chain with legs of different widths.
    preds.push_back(Predicate::And(Predicate::Ge("v", Value(std::min(a, b))),
                                   Predicate::Le("v", Value(std::max(a, b)))));
    preds.push_back(Predicate::And(Predicate::Ne("v", Value(a)),
                                   Predicate::Lt("w", Value(int64_t{100}))));
    preds.push_back(Predicate::Not(
        Predicate::And(Predicate::Gt("v", Value(a)),
                       Predicate::Ge("w", Value(int64_t{-50})))));
  }
  preds.push_back(Predicate::In("v", {Value(lits[0]), Value(lits[7]),
                                      Value(int64_t{155}), Value(int64_t{0})}));

  ThreadPool pool(3);
  for (const Predicate& pred : preds) {
    RowMask want(v.size());
    for (size_t r = 0; r < v.size(); ++r) {
      if (ReferenceEval(pred, schema, rows[r])) want.Set(r);
    }
    const CompiledPredicate compiled =
        *CompiledPredicate::Compile(pred, schema);
    ASSERT_TRUE(compiled.EvalMask(table) == want) << pred.ToString();
    for (size_t shards : kShardCounts) {
      ASSERT_TRUE(ParallelEvalMask(compiled, table, {&pool, shards}) == want)
          << pred.ToString() << " shards=" << shards;
    }
  }
}

RowMask RandomMask(size_t rows, Rng& rng) {
  RowMask m(rows);
  for (size_t i = 0; i < rows; ++i) {
    if (rng.NextBernoulli(0.4)) m.Set(i);
  }
  return m;
}

TEST(ParallelScanTest, ShardedAndWithAndCountMatchSerial) {
  ThreadPool pool(3);
  Rng rng(0xC0);
  for (size_t rows : kBoundarySizes) {
    const RowMask a = RandomMask(rows, rng);
    const RowMask b = RandomMask(rows, rng);
    for (size_t shards : kShardCounts) {
      const ParallelScanOptions opts{&pool, shards};

      EXPECT_EQ(ParallelCount(a, opts), a.Count());

      RowMask and_serial = a;
      and_serial.AndWith(b);
      RowMask and_parallel = a;
      ParallelAndWith(&and_parallel, b, opts);
      ASSERT_TRUE(and_parallel == and_serial);
    }
  }
}

// |a ∧ b| by testing every bit: an oracle independent of the popcount
// kernels that RowMask::Count and ParallelAndCount share.
size_t AndCountOracle(const RowMask& a, const RowMask& b) {
  size_t n = 0;
  for (size_t i = 0; i < a.size(); ++i) n += (a.Test(i) && b.Test(i)) ? 1 : 0;
  return n;
}

TEST(ParallelScanTest, ParallelAndCountMatchesBitOracle) {
  ThreadPool pool(3);
  Rng rng(0xAC);
  for (size_t rows : kBoundarySizes) {
    const RowMask a = RandomMask(rows, rng);
    const RowMask b = RandomMask(rows, rng);
    const RowMask all(rows, /*value=*/true);
    const RowMask none(rows);
    const size_t expected = AndCountOracle(a, b);
    for (size_t shards : kShardCounts) {
      const ParallelScanOptions opts{&pool, shards};
      EXPECT_EQ(ParallelAndCount(a, b, 0, rows, opts), expected)
          << "rows=" << rows << " shards=" << shards;
      EXPECT_EQ(ParallelAndCount(b, a, 0, rows, opts), expected);
      EXPECT_EQ(ParallelAndCount(a, all, 0, rows, opts),
                AndCountOracle(a, all));
      EXPECT_EQ(ParallelAndCount(a, none, 0, rows, opts), 0u);
      EXPECT_EQ(ParallelAndCount(all, all, 0, rows, opts), rows);
    }
  }
  // The default pool and shard count take the same path.
  const RowMask a = RandomMask(4113, rng);
  const RowMask b = RandomMask(4113, rng);
  EXPECT_EQ(ParallelAndCount(a, b, 0, a.size()), AndCountOracle(a, b));
}

TEST(ParallelScanDeathTest, ParallelAndCountRejectsMismatchedSizes) {
  const RowMask a(128);
  const RowMask b(129);
  EXPECT_DEATH(ParallelAndCount(a, b, 0, a.size()), "size");
}

TEST(ParallelScanTest, TwoMaskAccumulateBitIdenticalToCopyAndAnd) {
  // ParallelAccumulateHistogram(prepared, where, also, ...) ANDs inside the
  // walk; it must equal accumulating a materialized copy of where ∧ also,
  // serially and at every shard count.
  ThreadPool pool(3);
  Rng rng(0xB7);
  // One query per binning loop: int64 numeric, int64 categorical, double.
  const Domain1D age_domain = *Domain1D::Numeric(0, 100, 16);
  const Domain1D opt_in_domain = Domain1D::Categorical(2);
  const Domain1D income_domain = *Domain1D::Numeric(0, 100000, 32);
  for (size_t rows : kBoundarySizes) {
    const Table table = TableOfSize(rows, 0xB8 + rows);
    const RowMask where = RandomMask(rows, rng);
    const RowMask also = RandomMask(rows, rng);
    RowMask selected = where;
    selected.AndWith(also);
    for (const HistogramQuery& query :
         {HistogramQuery{"age", age_domain, std::nullopt},
          HistogramQuery{"opt_in", opt_in_domain, std::nullopt},
          HistogramQuery{"income", income_domain, std::nullopt}}) {
      const PreparedHistogramQuery prepared =
          *PreparedHistogramQuery::Prepare(table, query);
      Histogram reference(prepared.num_bins());
      prepared.AccumulateRange(selected, 0, rows, &reference);

      Histogram serial(prepared.num_bins());
      prepared.AccumulateRange(where, also, 0, rows, &serial);
      ASSERT_EQ(serial.counts(), reference.counts()) << "rows=" << rows;
      for (size_t shards : kShardCounts) {
        const Histogram parallel = ParallelAccumulateHistogram(
            prepared, where, also, 0, rows, {&pool, shards});
        ASSERT_EQ(parallel.counts(), reference.counts())
            << "rows=" << rows << " shards=" << shards;
      }
    }
  }
}

TEST(ParallelScanTest, ShardedHistogramBitIdenticalToSerial) {
  ThreadPool pool(3);
  Rng rng(0xB1);
  const Domain1D age_domain = *Domain1D::Numeric(0, 100, 16);
  for (size_t rows : kBoundarySizes) {
    const Table table = TableOfSize(rows, 0xB0 + rows);
    const RowMask mask = RandomMask(rows, rng);
    for (const auto& where :
         {std::optional<Predicate>(),
          std::optional<Predicate>(Predicate::Gt("income", Value(25000.0))),
          std::optional<Predicate>(Predicate::And(
              Predicate::Eq("opt_in", Value(1)),
              Predicate::In("race", {Value("C0"), Value("C4")})))}) {
      // The service's composition: the WHERE clause (TRUE when absent)
      // evaluated shard-parallel, then the two-mask sharded accumulation.
      const HistogramQuery query{"age", age_domain, where};
      const Histogram serial = *ComputeHistogramMasked(table, query, mask);
      const PreparedHistogramQuery prepared =
          *PreparedHistogramQuery::Prepare(table, query);
      for (size_t shards : kShardCounts) {
        const ParallelScanOptions opts{&pool, shards};
        const RowMask where_mask =
            ParallelEvalMask(*prepared.where(), table, opts);
        const Histogram parallel = ParallelAccumulateHistogram(
            prepared, where_mask, mask, 0, rows, opts);
        ASSERT_EQ(parallel.counts(), serial.counts())
            << "rows=" << rows << " shards=" << shards;
      }
    }
  }
}

TEST(ParallelScanTest, DefaultPoolAndShardsWork) {
  const Table table = TableOfSize(10000, 0xF0);
  const CompiledPredicate compiled = *CompiledPredicate::Compile(
      Predicate::Le("age", Value(40)), table.schema());
  EXPECT_TRUE(ParallelEvalMask(compiled, table) == compiled.EvalMask(table));
}

TEST(ParallelScanTest, CancelledTokenAbortsWithoutPartialResults) {
  // A fired token aborts the whole scan with AbortedError(kCancelled) at the
  // next shard boundary — never a partial mask or count — while an inert
  // control costs nothing and changes nothing.
  ThreadPool pool(2);
  const Table table = TableOfSize(1000, 0xC5);
  const auto compiled = *CompiledPredicate::Compile(
      Predicate::Le("age", Value(40)), table.schema());
  const RowMask serial = compiled.EvalMask(table);

  CancelToken token;
  ExecControl control(token, std::nullopt);
  ParallelScanOptions opts;
  opts.pool = &pool;
  opts.num_shards = 4;
  opts.control = &control;

  // Not yet cancelled: identical to serial.
  EXPECT_TRUE(ParallelEvalMask(compiled, table, opts) == serial);
  EXPECT_EQ(ParallelCount(serial, opts), serial.Count());
  EXPECT_EQ(ParallelAndCount(serial, serial, 0, serial.size(), opts),
            serial.Count());

  token.Cancel();
  try {
    ParallelEvalMask(compiled, table, opts);
    FAIL() << "cancelled scan must abort";
  } catch (const AbortedError& aborted) {
    EXPECT_EQ(aborted.status.code(), StatusCode::kCancelled);
  }
  EXPECT_THROW(ParallelCount(serial, opts), AbortedError);
  EXPECT_THROW(ParallelAndCount(serial, serial, 0, serial.size(), opts),
               AbortedError);

  // The pool survives an aborted scan; detaching the control restores the
  // uncancellable path.
  opts.control = nullptr;
  EXPECT_TRUE(ParallelEvalMask(compiled, table, opts) == serial);
}

TEST(ParallelScanTest, PassedDeadlineAbortsWithDeadlineExceeded) {
  ThreadPool pool(2);
  const Table table = TableOfSize(500, 0xD7);
  const auto compiled = *CompiledPredicate::Compile(
      Predicate::Gt("income", Value(10000.0)), table.schema());

  ExecControl control(
      std::nullopt,
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1));
  ParallelScanOptions opts;
  opts.pool = &pool;
  opts.control = &control;
  try {
    ParallelEvalMask(compiled, table, opts);
    FAIL() << "past-deadline scan must abort";
  } catch (const AbortedError& aborted) {
    EXPECT_EQ(aborted.status.code(), StatusCode::kDeadlineExceeded);
  }

  // A comfortably-future deadline never trips, and the result is serial-
  // identical.
  ExecControl future(
      std::nullopt, std::chrono::steady_clock::now() + std::chrono::hours(1));
  opts.control = &future;
  EXPECT_TRUE(ParallelEvalMask(compiled, table, opts) ==
              compiled.EvalMask(table));
}

// `mask` with every bit outside rows [begin, end) cleared.
RowMask RestrictTo(const RowMask& mask, size_t begin, size_t end) {
  RowMask out(mask.size());
  mask.ForEachSetInRange(begin, end, [&](size_t row) { out.Set(row); });
  return out;
}

// A table of three chunks and a ragged tail, so range shards cross chunk
// edges, and ranges whose edges sit on, just before and just past word and
// chunk boundaries, empty ones included.
constexpr size_t kRangeRows = 3 * kChunkRows + 77;
const std::pair<size_t, size_t> kRanges[] = {
    {0, kRangeRows},          {0, 0},
    {kRangeRows, kRangeRows}, {1, kRangeRows},
    {63, 64},                 {64, kChunkRows + 1},
    {kChunkRows - 1, kRangeRows - 1},
    {kChunkRows + 64, kRangeRows},
    {5000, 5001},             {100, 2 * kChunkRows + 1}};

TEST(ParallelScanRangeTest, RangeCountAndHistogramsEqualTheRestrictedWhole) {
  // Each row-range helper equals its whole-table form over a mask restricted
  // to the range, at every shard count and for every binning loop.
  ThreadPool pool(3);
  Rng rng(0xD1);
  const Table table = TableOfSize(kRangeRows, 0xD2);
  const RowMask a = RandomMask(kRangeRows, rng);
  const RowMask b = RandomMask(kRangeRows, rng);
  const Domain1D age_domain = *Domain1D::Numeric(0, 100, 16);
  const Domain1D opt_in_domain = Domain1D::Categorical(2);
  const Domain1D income_domain = *Domain1D::Numeric(0, 100000, 32);
  std::vector<PreparedHistogramQuery> queries;
  for (const HistogramQuery& query :
       {HistogramQuery{"age", age_domain, std::nullopt},
        HistogramQuery{"opt_in", opt_in_domain, std::nullopt},
        HistogramQuery{"income", income_domain, std::nullopt}}) {
    queries.push_back(*PreparedHistogramQuery::Prepare(table, query));
  }
  for (const auto& [begin, end] : kRanges) {
    const RowMask a_in = RestrictTo(a, begin, end);
    for (size_t shards : kShardCounts) {
      const ParallelScanOptions opts{&pool, shards};
      EXPECT_EQ(ParallelAndCount(a, b, begin, end, opts),
                ParallelAndCount(a_in, b, 0, kRangeRows, opts))
          << "range=[" << begin << ", " << end << ") shards=" << shards;
      for (const PreparedHistogramQuery& prepared : queries) {
        EXPECT_EQ(
            ParallelAccumulateHistogram(prepared, a, begin, end, opts).counts(),
            ParallelAccumulateHistogram(prepared, a_in, opts).counts())
            << "range=[" << begin << ", " << end << ") shards=" << shards;
        EXPECT_EQ(ParallelAccumulateHistogram(prepared, a, b, begin, end, opts)
                      .counts(),
                  ParallelAccumulateHistogram(prepared, a_in, b, 0, kRangeRows,
                                              opts)
                      .counts())
            << "range=[" << begin << ", " << end << ") shards=" << shards;
      }
    }
  }
}

// Word w of a mask, read through its block.
uint64_t WordOf(const RowMask& mask, size_t w) {
  return mask.block(w / kBlockWords)[w % kBlockWords];
}

TEST(ParallelScanRangeTest, EvalMaskIntoScansOnlyFromItsWordBoundary) {
  // ParallelEvalMasksInto from a word boundary writes exactly the words from
  // there on — equal to the whole-table scan's — and leaves every earlier
  // word as it found it.
  ThreadPool pool(3);
  Rng rng(0xD3);
  const Table table = TableOfSize(kRangeRows, 0xD4);
  for (const Predicate& pred : TestPredicates()) {
    const CompiledPredicate compiled =
        *CompiledPredicate::Compile(pred, table.schema());
    const RowMask whole = compiled.EvalMask(table);
    for (size_t begin :
         {size_t{0}, size_t{64}, kChunkRows - 64, kChunkRows,
          kChunkRows + 64, kRangeRows & ~size_t{63}}) {
      const RowMask before = RandomMask(kRangeRows, rng);
      for (size_t shards : kShardCounts) {
        RowMask out = before;
        ParallelEvalMasksInto({&compiled}, table, begin, {&out},
                              {&pool, shards});
        for (size_t w = 0; w < out.num_words(); ++w) {
          const uint64_t want =
              w < begin / 64 ? WordOf(before, w) : WordOf(whole, w);
          ASSERT_EQ(WordOf(out, w), want)
              << "begin=" << begin << " shards=" << shards << " word=" << w;
        }
      }
    }
  }
}

// A random clause over an int, double or string column, or a constant,
// combined by OR, AND and NOT while `depth` lasts.
Predicate RandomClause(Rng& rng, int depth) {
  switch (rng.NextBounded(depth > 0 ? 8 : 5)) {
    case 0:
      return Predicate::Le("age", Value(static_cast<int64_t>(
                                      rng.NextBounded(100))));
    case 1:
      return Predicate::Ge("zip", Value(static_cast<int64_t>(
                                      rng.NextBounded(10000))));
    case 2:
      return Predicate::Gt(
          "income", Value(20000.0 + 1000.0 * rng.NextBounded(60)));
    case 3:
      return Predicate::Eq("race",
                           Value("C" + std::to_string(rng.NextBounded(8))));
    case 4:
      return rng.NextBernoulli(0.5) ? Predicate::True() : Predicate::False();
    case 5:
      return Predicate::Or(RandomClause(rng, depth - 1),
                           RandomClause(rng, depth - 1));
    case 6:
      return Predicate::And(RandomClause(rng, depth - 1),
                            RandomClause(rng, depth - 1));
    default:
      return Predicate::Not(RandomClause(rng, depth - 1));
  }
}

TEST(ParallelScanRangeTest, SharedPassEqualsEachClausesOwnMask) {
  // ParallelEvalMasksInto over 1–9 random clauses writes, for every clause,
  // exactly the words EvalMask does from row_begin on, and leaves every
  // earlier word as it found it — at every shard count, on inline, one- and
  // four-worker pools.
  Rng rng(0x5AED);
  const Table table = TableOfSize(kRangeRows, 0x5AEE);
  for (size_t threads : {size_t{0}, size_t{1}, size_t{4}}) {
    ThreadPool pool(threads);
    for (int trial = 0; trial < 6; ++trial) {
      std::vector<CompiledPredicate> compiled;
      const size_t n = 1 + rng.NextBounded(9);
      for (size_t i = 0; i < n; ++i) {
        compiled.push_back(*CompiledPredicate::Compile(RandomClause(rng, 3),
                                                       table.schema()));
      }
      std::vector<const CompiledPredicate*> preds;
      for (const CompiledPredicate& c : compiled) preds.push_back(&c);
      const size_t ragged = 64 * (1 + rng.NextBounded(kRangeRows / 64 - 1));
      for (size_t begin : {size_t{0}, size_t{64}, ragged}) {
        // 0: the default sharding, at least one shard per clause.
        for (size_t shards :
             {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{7}}) {
          std::vector<RowMask> before;
          std::vector<RowMask> out;
          std::vector<RowMask*> outs;
          for (size_t i = 0; i < n; ++i) {
            before.push_back(RandomMask(kRangeRows, rng));
          }
          out = before;
          for (RowMask& m : out) outs.push_back(&m);
          ParallelEvalMasksInto(preds, table, begin, outs, {&pool, shards});
          for (size_t i = 0; i < n; ++i) {
            const RowMask whole = compiled[i].EvalMask(table);
            for (size_t w = 0; w < whole.num_words(); ++w) {
              const uint64_t want =
                  w < begin / 64 ? WordOf(before[i], w) : WordOf(whole, w);
              ASSERT_EQ(WordOf(out[i], w), want)
                  << "threads=" << threads << " clauses=" << n
                  << " clause=" << i << " begin=" << begin
                  << " shards=" << shards << " word=" << w;
            }
          }
        }
      }
    }
  }
}

TEST(ParallelScanRangeTest, RangeFormsKeepThePerShardAbortPoll) {
  ThreadPool pool(2);
  Rng rng(0xD5);
  const Table table = TableOfSize(kRangeRows, 0xD6);
  const auto compiled = *CompiledPredicate::Compile(
      Predicate::Le("age", Value(40)), table.schema());
  const PreparedHistogramQuery prepared = *PreparedHistogramQuery::Prepare(
      table, HistogramQuery{"age", *Domain1D::Numeric(0, 100, 16),
                            std::nullopt});
  const RowMask a = RandomMask(kRangeRows, rng);
  CancelToken token;
  token.Cancel();
  ExecControl control(token, std::nullopt);
  ParallelScanOptions opts;
  opts.pool = &pool;
  opts.num_shards = 4;
  opts.control = &control;
  RowMask out(kRangeRows);
  EXPECT_THROW(ParallelEvalMasksInto({&compiled}, table, 64, {&out}, opts),
               AbortedError);
  EXPECT_THROW(ParallelAndCount(a, a, 1, kRangeRows, opts), AbortedError);
  EXPECT_THROW(ParallelAccumulateHistogram(prepared, a, 1, kRangeRows, opts),
               AbortedError);
  EXPECT_THROW(
      ParallelAccumulateHistogram(prepared, a, a, 1, kRangeRows, opts),
      AbortedError);
}

TEST(RowMaskTest, ForEachSetInRangeHonorsUnalignedBounds) {
  Rng rng(0x5E7);
  const RowMask mask = RandomMask(301, rng);
  for (size_t begin : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                       size_t{100}, size_t{301}}) {
    for (size_t end : {begin, size_t{150}, size_t{256}, size_t{301}}) {
      if (end < begin) continue;
      std::vector<size_t> got;
      mask.ForEachSetInRange(begin, end,
                             [&](size_t row) { got.push_back(row); });
      std::vector<size_t> want;
      mask.ForEachSet([&](size_t row) {
        if (row >= begin && row < end) want.push_back(row);
      });
      ASSERT_EQ(got, want) << "begin=" << begin << " end=" << end;
    }
  }
}

}  // namespace
}  // namespace osdp
