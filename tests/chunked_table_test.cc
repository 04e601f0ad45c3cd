// Tests for the chunked copy-on-write column layer (src/data/
// chunked_column.h) and everything that rides on it: chunk sharing across
// copies / appends / snapshot generations, the randomized property suite
// pinning the chunk-spanning scan paths bit-identical to the boxed
// row-at-a-time ReferenceEval on every row at chunk-edge sizes and across
// shard counts, the per-chunk cell-reference lifetime contract, and the
// zero-copy TableView consumers.

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/check.h"
#include "src/common/random.h"

#include "src/data/chunked_column.h"
#include "src/data/compiled_predicate.h"
#include "src/data/predicate.h"
#include "src/data/row_mask.h"
#include "src/data/schema.h"
#include "src/data/snapshot.h"
#include "src/data/snapshot_store.h"
#include "src/data/table.h"
#include "src/data/table_builder.h"
#include "src/data/table_view.h"
#include "src/hist/histogram_query.h"
#include "src/mech/osdp_rr.h"
#include "src/policy/policy.h"
#include "tests/reference_predicate.h"
#include "src/runtime/parallel_scan.h"
#include "src/runtime/thread_pool.h"
#include "tests/table_rows.h"

namespace osdp {
namespace {

// The chunk-edge sizes the whole suite sweeps: one row short of a chunk, an
// exactly-full chunk, one row past it, and a multi-chunk size with a ragged
// tail that is not word-aligned either.
const std::vector<size_t>& EdgeSizes() {
  static const std::vector<size_t> kSizes = {
      kChunkRows - 1, kChunkRows, kChunkRows + 1, 3 * kChunkRows + 17};
  return kSizes;
}

const std::vector<size_t>& ShardCounts() {
  static const std::vector<size_t> kShards = {1, 2, 7, 64};
  return kShards;
}

Schema TestSchema() {
  return Schema({{"age", ValueType::kInt64},
                 {"income", ValueType::kDouble},
                 {"race", ValueType::kString}});
}

const std::vector<std::string>& StringPool() {
  static const std::vector<std::string> kPool = {"",   "a", "ab",
                                                 "ba", "c", "zzz"};
  return kPool;
}

// Bulk-builds a random table of exactly `rows` rows (FromColumns, so the
// cells land in freshly-cut chunks the same way ingest produces them).
Table RandomTable(size_t rows, Rng& rng) {
  std::vector<int64_t> age(rows);
  std::vector<double> income(rows);
  std::vector<std::string> race(rows);
  for (size_t r = 0; r < rows; ++r) {
    age[r] = static_cast<int64_t>(rng.NextBounded(100));
    income[r] = static_cast<double>(rng.NextBounded(1000)) * 0.25;
    race[r] = StringPool()[rng.NextBounded(StringPool().size())];
  }
  Result<Table> t = Table::FromColumns(
      TestSchema(), {std::move(age), std::move(income), std::move(race)});
  OSDP_CHECK(t.ok());
  return *std::move(t);
}

Predicate TestPredicate() {
  return Predicate::Or(
      Predicate::And(Predicate::Lt("age", Value(37)),
                     Predicate::Ge("income", Value(30.25))),
      Predicate::In("race", {Value("ab"), Value("zzz")}));
}

// The row-at-a-time boxed reference: a mask sized table.num_rows() whose bit
// r, for every r in [row_begin, row_end), is ReferenceEval on row r; bits
// outside the range stay clear.
RowMask BoxedMask(const Predicate& pred, const Table& table, size_t row_begin,
                  size_t row_end) {
  RowMask mask(table.num_rows());
  for (size_t r = row_begin; r < row_end; ++r) {
    if (ReferenceEval(pred, table, r)) mask.Set(r);
  }
  return mask;
}

// ---------------------------------------------------------- ChunkedColumn ---

TEST(ChunkedColumnTest, FromFlatRoundTripsAcrossEdgeSizes) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{63}, size_t{64}, kChunkRows - 1,
                   kChunkRows, kChunkRows + 1, 3 * kChunkRows + 17}) {
    std::vector<int64_t> flat(n);
    for (size_t i = 0; i < n; ++i) flat[i] = static_cast<int64_t>(i * 3 + 1);
    const ChunkedColumn<int64_t> col = ChunkedColumn<int64_t>::FromFlat(flat);
    ASSERT_EQ(col.size(), n);
    ASSERT_EQ(col.num_chunks(), (n + kChunkRows - 1) / kChunkRows);
    ASSERT_EQ(ColumnCells(col), flat) << "n=" << n;
  }
}

TEST(ChunkedColumnTest, ForEachSpanCoversRangeWithAlignedSpanStarts) {
  const size_t n = 3 * kChunkRows + 17;
  std::vector<double> flat(n);
  for (size_t i = 0; i < n; ++i) flat[i] = static_cast<double>(i);
  const ChunkedColumn<double> col = ChunkedColumn<double>::FromFlat(flat);

  // A 64-aligned entry point mid-column: every span start must stay
  // 64-aligned (the EvalRangeInto word-packing invariant).
  const size_t begin = 128;
  size_t expect = begin;
  col.ForEachSpan(begin, n, [&](const double* data, size_t gbegin, size_t len) {
    ASSERT_EQ(gbegin, expect);
    ASSERT_EQ(gbegin % 64, 0u);
    for (size_t i = 0; i < len; ++i) ASSERT_EQ(data[i], flat[gbegin + i]);
    expect = gbegin + len;
  });
  ASSERT_EQ(expect, n);
}

TEST(ChunkedColumnTest, CopySharesChunksAndIsImmuneToSourceAppends) {
  std::vector<int64_t> flat(kChunkRows + 100);
  for (size_t i = 0; i < flat.size(); ++i) flat[i] = static_cast<int64_t>(i);
  ChunkedColumn<int64_t> col = ChunkedColumn<int64_t>::FromFlat(flat);

  const ChunkedColumn<int64_t> copy = col;
  ASSERT_EQ(copy.num_chunks(), col.num_chunks());
  for (size_t ci = 0; ci < col.num_chunks(); ++ci) {
    ASSERT_EQ(copy.ChunkIdentity(ci), col.ChunkIdentity(ci)) << "chunk " << ci;
  }

  // The source keeps tail ownership: its appends extend the shared tail
  // chunk in place, past the copy's recorded size — invisible to the copy.
  const void* tail_before = col.ChunkIdentity(col.num_chunks() - 1);
  for (int64_t v = 0; v < 50; ++v) col.push_back(v + 1000);
  ASSERT_EQ(col.ChunkIdentity(col.num_chunks() - 1), tail_before);
  ASSERT_EQ(ColumnCells(copy), flat);
}

TEST(ChunkedColumnTest, NonOwnerAppendCopyOnWritesOnlyTheTail) {
  std::vector<int64_t> flat(kChunkRows + 100);
  for (size_t i = 0; i < flat.size(); ++i) flat[i] = static_cast<int64_t>(i);
  const ChunkedColumn<int64_t> col = ChunkedColumn<int64_t>::FromFlat(flat);

  ChunkedColumn<int64_t> copy = col;
  copy.push_back(-7);  // first write through a non-owner triggers the CoW

  // The sealed chunk stays shared; only the partial tail was replaced.
  ASSERT_EQ(copy.ChunkIdentity(0), col.ChunkIdentity(0));
  ASSERT_NE(copy.ChunkIdentity(1), col.ChunkIdentity(1));
  ASSERT_EQ(ColumnCells(col), flat);
  std::vector<int64_t> expect = flat;
  expect.push_back(-7);
  ASSERT_EQ(ColumnCells(copy), expect);
}

TEST(ChunkedColumnTest, AlignedAppendAdoptsChunksMisalignedRepacks) {
  std::vector<int64_t> a_flat(2 * kChunkRows), b_flat(kChunkRows + 9);
  for (size_t i = 0; i < a_flat.size(); ++i)
    a_flat[i] = static_cast<int64_t>(i);
  for (size_t i = 0; i < b_flat.size(); ++i)
    b_flat[i] = static_cast<int64_t>(i + 1000000);

  // Chunk-aligned destination: pure pointer adoption.
  ChunkedColumn<int64_t> a = ChunkedColumn<int64_t>::FromFlat(a_flat);
  const ChunkedColumn<int64_t> b = ChunkedColumn<int64_t>::FromFlat(b_flat);
  a.Append(b);
  ASSERT_EQ(a.size(), a_flat.size() + b_flat.size());
  for (size_t ci = 0; ci < b.num_chunks(); ++ci) {
    ASSERT_EQ(a.ChunkIdentity(2 + ci), b.ChunkIdentity(ci)) << "chunk " << ci;
  }
  std::vector<int64_t> expect = a_flat;
  expect.insert(expect.end(), b_flat.begin(), b_flat.end());
  ASSERT_EQ(ColumnCells(a), expect);

  // Misaligned destination: cells repack, content still exact.
  ChunkedColumn<int64_t> c = ChunkedColumn<int64_t>::FromFlat(b_flat);
  c.Append(b);
  std::vector<int64_t> expect2 = b_flat;
  expect2.insert(expect2.end(), b_flat.begin(), b_flat.end());
  ASSERT_EQ(ColumnCells(c), expect2);
  ASSERT_NE(c.ChunkIdentity(c.num_chunks() - 1),
            b.ChunkIdentity(b.num_chunks() - 1));
}

// ------------------------------------------------------ table self-append ---

TEST(ChunkedTableTest, AlignedSelfAppendSharesOwnChunks) {
  Rng rng(0x5E1F);
  Table t = RandomTable(2 * kChunkRows, rng);
  const Table before = t;  // pins the pre-append content

  ASSERT_TRUE(t.AppendRows(t).ok());
  ASSERT_EQ(t.num_rows(), 4 * kChunkRows);

  // Doubling a chunk-aligned table is pointer adoption: the second half's
  // chunks ARE the first half's — a publish makes zero cell copies here.
  const auto& age = t.Int64Column(0);
  ASSERT_EQ(age.num_chunks(), 4u);
  ASSERT_EQ(age.ChunkIdentity(2), age.ChunkIdentity(0));
  ASSERT_EQ(age.ChunkIdentity(3), age.ChunkIdentity(1));

  const auto& ref = before.Int64Column(0);
  for (size_t r = 0; r < before.num_rows(); ++r) {
    ASSERT_EQ(age[r], ref[r]);
    ASSERT_EQ(age[before.num_rows() + r], ref[r]);
  }
}

TEST(ChunkedTableTest, MisalignedSelfAppendIsExact) {
  Rng rng(0xA11D);
  Table t = RandomTable(kChunkRows + 33, rng);
  const Table before = t;

  ASSERT_TRUE(t.AppendRows(t).ok());
  ASSERT_EQ(t.num_rows(), 2 * before.num_rows());
  for (size_t r = 0; r < before.num_rows(); ++r) {
    ASSERT_EQ(RowAt(t, r), RowAt(before, r)) << "row " << r;
    ASSERT_EQ(RowAt(t, before.num_rows() + r), RowAt(before, r)) << "row " << r;
  }
}

// ----------------------------------------------------- scan bit-identity ---

TEST(ChunkedScanProperty, ChunkedEvalBitIdenticalToRowReference) {
  Rng rng(0xC4A9);
  const Predicate pred = TestPredicate();
  for (size_t rows : EdgeSizes()) {
    const Table table = RandomTable(rows, rng);
    Result<CompiledPredicate> compiled =
        CompiledPredicate::Compile(pred, table.schema());
    ASSERT_TRUE(compiled.ok());

    const RowMask chunked = compiled->EvalMask(table);
    ASSERT_TRUE(chunked == BoxedMask(pred, table, 0, rows)) << "rows=" << rows;

    for (size_t shards : ShardCounts()) {
      ThreadPool pool(4);
      ParallelScanOptions opts;
      opts.pool = &pool;
      opts.num_shards = shards;
      const RowMask sharded = ParallelEvalMask(*compiled, table, opts);
      ASSERT_TRUE(sharded == chunked) << "rows=" << rows
                                      << " shards=" << shards;
    }
  }
}

TEST(ChunkedScanProperty, RangeEvalAgreesWithRowReferenceAtWordBoundaries) {
  Rng rng(0x9999);
  const Table table = RandomTable(3 * kChunkRows + 17, rng);
  const Predicate pred = TestPredicate();
  Result<CompiledPredicate> compiled =
      CompiledPredicate::Compile(pred, table.schema());
  ASSERT_TRUE(compiled.ok());

  // Ranges that straddle chunk edges from word-aligned starts.
  const size_t n = table.num_rows();
  const std::vector<std::pair<size_t, size_t>> ranges = {
      {0, 64},
      {kChunkRows - 64, kChunkRows + 64},
      {2 * kChunkRows, n},
      {(n / 64) * 64, n},
      {0, n}};
  for (const auto& [begin, end] : ranges) {
    RowMask a(n);
    compiled->EvalRangeInto(table, begin, end, &a);
    ASSERT_TRUE(a == BoxedMask(pred, table, begin, end))
        << "range [" << begin << ", " << end << ")";
  }
}

// A random AND chain of 2-10 range legs over `age` (int and double
// literals) and `income`, randomly associated, sometimes with a string leg:
// the shapes the scan fuses into one kernel pass per block, including
// same-column intervals it intersects, != legs it cannot, and chains longer
// than one kernel call takes.
Predicate RandomRangeChain(Rng& rng) {
  auto leg = [&]() -> Predicate {
    const bool on_age = rng.NextBernoulli(0.6);
    const std::string col = on_age ? "age" : "income";
    std::vector<Value> lits;  // one literal
    if (on_age && rng.NextBernoulli(0.7)) {
      lits.emplace_back(static_cast<int64_t>(rng.NextBounded(102)) - 1);
    } else {
      lits.emplace_back(static_cast<double>(rng.NextBounded(1010)) *
                        (on_age ? 0.1 : 0.25));
    }
    const Value& lit = lits[0];
    switch (rng.NextBounded(6)) {
      case 0: return Predicate::Eq(col, lit);
      case 1: return Predicate::Ne(col, lit);
      case 2: return Predicate::Lt(col, lit);
      case 3: return Predicate::Le(col, lit);
      case 4: return Predicate::Gt(col, lit);
      default: return Predicate::Ge(col, lit);
    }
  };
  const size_t num_legs = 2 + rng.NextBounded(9);
  Predicate chain = leg();
  for (size_t i = 1; i < num_legs; ++i) {
    Predicate next = rng.NextBernoulli(0.1)
                         ? Predicate::In("race", {Value("ab"), Value("c")})
                         : leg();
    chain = rng.NextBernoulli(0.5) ? Predicate::And(chain, next)
                                   : Predicate::And(next, chain);
  }
  return chain;
}

TEST(ChunkedScanProperty, FusedRangeChainsAcrossChunksMatchRowReference) {
  Rng rng(0xF05E);
  const Table table = RandomTable(3 * kChunkRows + 17, rng);
  const size_t n = table.num_rows();
  ThreadPool pool(4);
  for (int trial = 0; trial < 40; ++trial) {
    const Predicate pred = RandomRangeChain(rng);
    Result<CompiledPredicate> compiled =
        CompiledPredicate::Compile(pred, table.schema());
    ASSERT_TRUE(compiled.ok());

    const RowMask reference = BoxedMask(pred, table, 0, n);
    ASSERT_TRUE(compiled->EvalMask(table) == reference) << pred.ToString();
    for (size_t shards : ShardCounts()) {
      ParallelScanOptions opts;
      opts.pool = &pool;
      opts.num_shards = shards;
      ASSERT_TRUE(ParallelEvalMask(*compiled, table, opts) == reference)
          << pred.ToString() << " shards=" << shards;
    }
    // Sub-ranges that start mid-chunk and cross one or two chunk edges.
    for (const auto& [begin, end] : std::vector<std::pair<size_t, size_t>>{
             {64, kChunkRows + 128}, {kChunkRows - 64, 3 * kChunkRows},
             {2 * kChunkRows + 640, n}}) {
      RowMask sub(n);
      compiled->EvalRangeInto(table, begin, end, &sub);
      ASSERT_TRUE(sub == BoxedMask(pred, table, begin, end))
          << pred.ToString() << " range [" << begin << ", " << end << ")";
    }
  }
}

TEST(ChunkedScanProperty, SelectRowsMaskIndicesAndViewAgree) {
  Rng rng(0xD00D);
  for (size_t rows : EdgeSizes()) {
    const Table table = RandomTable(rows, rng);
    RowMask mask(rows);
    for (size_t r = 0; r < rows; ++r) {
      if (rng.NextBernoulli(0.3)) mask.Set(r);
    }

    const Table by_mask = table.SelectRows(mask);
    const std::vector<size_t> indices = mask.ToIndices();
    const TableView view = table.SelectRowsView(mask);
    const Table by_view = view.Materialize();

    ASSERT_EQ(view.mask().Count(), by_view.num_rows());
    ASSERT_EQ(by_mask.num_rows(), indices.size());
    ASSERT_EQ(by_mask.num_rows(), by_view.num_rows());
    for (size_t c = 0; c < table.num_columns(); ++c) {
      for (size_t r = 0; r < by_mask.num_rows(); ++r) {
        ASSERT_EQ(CellAt(by_mask, r, c), CellAt(table, indices[r], c));
        ASSERT_EQ(CellAt(by_mask, r, c), CellAt(by_view, r, c));
      }
    }
  }
}

TEST(ChunkedScanProperty, ParallelHistogramAgreesAcrossShardCounts) {
  Rng rng(0x415F);
  const size_t rows = 3 * kChunkRows + 17;
  std::vector<int64_t> codes(rows);
  std::vector<double> unused(rows, 0.0);
  std::vector<std::string> tags(rows, "x");
  for (size_t r = 0; r < rows; ++r) {
    codes[r] = static_cast<int64_t>(rng.NextBounded(32));
  }
  Result<Table> table = Table::FromColumns(
      TestSchema(), {std::move(codes), std::move(unused), std::move(tags)});
  ASSERT_TRUE(table.ok());
  const HistogramQuery query{"age", Domain1D::Categorical(32), std::nullopt};

  RowMask mask(rows);
  for (size_t r = 0; r < rows; ++r) {
    if (rng.NextBernoulli(0.5)) mask.Set(r);
  }
  Result<Histogram> serial = ComputeHistogramMasked(*table, query, mask);
  ASSERT_TRUE(serial.ok());
  const PreparedHistogramQuery prepared =
      *PreparedHistogramQuery::Prepare(*table, query);
  for (size_t shards : ShardCounts()) {
    ThreadPool pool(4);
    ParallelScanOptions opts;
    opts.pool = &pool;
    opts.num_shards = shards;
    const RowMask where = ParallelEvalMask(*prepared.where(), *table, opts);
    const Histogram sharded =
        ParallelAccumulateHistogram(prepared, where, mask, 0, rows, opts);
    ASSERT_EQ(sharded.size(), serial->size());
    for (size_t b = 0; b < serial->size(); ++b) {
      ASSERT_DOUBLE_EQ(sharded[b], (*serial)[b])
          << "shards=" << shards << " bin=" << b;
    }
  }
}

// ------------------------------------------------------- string lifetime ---

TEST(ChunkedTableTest, StringViewsIntoSealedChunksSurviveAppends) {
  Rng rng(0x57A6);
  Table t = RandomTable(kChunkRows + 5, rng);

  // Views into the sealed chunk (rows below the last chunk boundary).
  std::vector<std::string_view> views;
  std::vector<std::string> expected;
  for (size_t r = 0; r < 100; ++r) {
    views.push_back(t.StringColumn(2)[r * 17 % kChunkRows]);
    expected.emplace_back(views.back());
  }

  // Grow the table well past another chunk boundary, through both the
  // in-place-tail path and fresh chunks. Under ASan a dangling view here is
  // a hard failure, not just a flaky comparison.
  const Table batch = RandomTable(2 * kChunkRows, rng);
  ASSERT_TRUE(t.AppendRows(batch).ok());
  for (size_t i = 0; i < views.size(); ++i) {
    ASSERT_EQ(views[i], expected[i]) << "view " << i;
  }

  // Copies (snapshot generations) share the sealed chunks, so a cell
  // reference through either is the same string object.
  const Table copy = t;
  ASSERT_EQ(&copy.StringColumn(2)[3], &t.StringColumn(2)[3]);
}

// ----------------------------------------------------- snapshot sharing ---

TEST(ChunkedSnapshotTest, ConsecutiveGenerationsShareSealedChunks) {
  Rng rng(0x6E4E);
  const Policy policy =
      Policy::SensitiveWhen(Predicate::Lt("age", Value(18)), "minors");
  Result<TableBuilder> builder =
      TableBuilder::Create(RandomTable(kChunkRows + 10, rng), policy);
  ASSERT_TRUE(builder.ok());

  const SnapshotPtr g0 = builder->BuildSnapshot(0);
  ASSERT_TRUE(builder->Append(RandomTable(500, rng)).ok());
  const SnapshotPtr g1 = builder->BuildSnapshot(1);

  // Every chunk of g0 is also a chunk of g1 — publish copied pointers, not
  // cells. (The partial tail is shared too: the builder appends in place,
  // and g0 reads only its recorded prefix.)
  const auto& c0 = g0->table.Int64Column(0);
  const auto& c1 = g1->table.Int64Column(0);
  ASSERT_EQ(g0->table.num_rows(), kChunkRows + 10);
  ASSERT_EQ(g1->table.num_rows(), kChunkRows + 510);
  for (size_t ci = 0; ci < c0.num_chunks(); ++ci) {
    ASSERT_EQ(c0.ChunkIdentity(ci), c1.ChunkIdentity(ci)) << "chunk " << ci;
  }

  // FromSnapshot adopts the chunks as well: no cell copies on restart.
  Result<TableBuilder> restarted = TableBuilder::FromSnapshot(*g1, policy);
  ASSERT_TRUE(restarted.ok());
  const SnapshotPtr g2 = restarted->BuildSnapshot(2);
  const auto& c2 = g2->table.Int64Column(0);
  for (size_t ci = 0; ci < c1.num_chunks(); ++ci) {
    ASSERT_EQ(c2.ChunkIdentity(ci), c1.ChunkIdentity(ci)) << "chunk " << ci;
  }
}

TEST(ChunkedSnapshotTest, SealingUnderPinnedReadersKeepsEveryGenerationExact) {
  // The writer fills and seals the raw tail that pinned generations still
  // read: appends of 1, 63, 4095, 4096 and 4097 rows from a ragged start
  // seal three int64 chunks into frame-of-reference form under the readers.
  // Each reader keeps its generation pinned and re-checks, while the writer
  // runs, every cell through operator[] against the flat rows, and the
  // compiled mask against the row-at-a-time reference on the same rows.
  Rng rng(0x5EA1);
  const Policy policy =
      Policy::SensitiveWhen(Predicate::Lt("age", Value(18)), "minors");
  const Predicate pred = TestPredicate();
  const CompiledPredicate compiled =
      *CompiledPredicate::Compile(pred, TestSchema());
  std::vector<Table> parts = {RandomTable(kChunkRows + 10, rng)};
  for (size_t rows : {size_t{1}, size_t{63}, kChunkRows - 1, kChunkRows,
                      kChunkRows + 1}) {
    parts.push_back(RandomTable(rows, rng));
  }
  std::vector<Row> rows;  // every row any generation holds, boxed
  for (const Table& part : parts) {
    for (size_t r = 0; r < part.num_rows(); ++r) rows.push_back(RowAt(part, r));
  }

  TableBuilder builder = *TableBuilder::Create(parts[0], policy);
  SnapshotStore store(builder.BuildSnapshot(0));
  constexpr size_t kReaders = 2;
  std::atomic<bool> stop{false};
  std::atomic<size_t> failures{0};
  std::atomic<size_t> checks[kReaders] = {};
  auto check = [&](const Snapshot& snap) {
    const Table& t = snap.table;
    const ChunkedColumn<int64_t>& age = t.Int64Column(0);
    for (size_t r = 0; r < t.num_rows(); ++r) {
      if (age[r] != rows[r][0].AsInt64() ||
          t.DoubleColumn(1)[r] != rows[r][1].AsDouble() ||
          t.StringColumn(2)[r] != rows[r][2].AsString()) {
        failures.fetch_add(1);
        return;
      }
    }
    const RowMask mask = compiled.EvalMask(t);
    for (size_t r = 0; r < t.num_rows(); ++r) {
      if (mask.Test(r) != ReferenceEval(pred, t.schema(), rows[r])) {
        failures.fetch_add(1);
        return;
      }
    }
  };
  std::vector<std::thread> readers;
  for (size_t i = 0; i < kReaders; ++i) {
    readers.emplace_back([&, i] {
      SnapshotPtr pinned = store.Current();
      while (!stop.load()) {
        check(*pinned);
        checks[i].fetch_add(1);
        // Re-pin now and then, so every generation is held by some reader
        // while later appends seal its tail.
        if (checks[i].load() % 3 == 0) pinned = store.Current();
      }
      check(*pinned);
    });
  }
  auto wait_for_checks = [&] {
    size_t seen[kReaders];
    for (size_t i = 0; i < kReaders; ++i) seen[i] = checks[i].load();
    for (size_t i = 0; i < kReaders; ++i) {
      while (checks[i].load() < seen[i] + 2) std::this_thread::yield();
    }
  };
  for (size_t g = 1; g < parts.size(); ++g) {
    wait_for_checks();
    const Status appended = builder.Append(parts[g]);
    EXPECT_TRUE(appended.ok()) << appended.ToString();
    if (!appended.ok()) break;
    store.Publish(builder.BuildSnapshot(g));
  }
  wait_for_checks();
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0u);
  // The appends sealed chunks 1 through 3 of the table the readers shared.
  EXPECT_EQ(store.Current()->table.num_rows(), rows.size());
  EXPECT_EQ(store.Current()->table.Int64Column(0).num_full_chunks(), 4u);
}

// ------------------------------------------------------------- TableView ---

TEST(TableViewTest, PinningViewKeepsSnapshotAlive) {
  Rng rng(0x9195);
  const Policy policy = Policy::AllNonSensitive();
  Result<TableBuilder> builder =
      TableBuilder::Create(RandomTable(150, rng), policy);
  ASSERT_TRUE(builder.ok());
  SnapshotPtr snap = builder->BuildSnapshot(0);

  RowMask mask(snap->table.num_rows(), /*value=*/true);
  const TableView view(snap, std::move(mask));
  const std::string& cell = view.table().StringColumn(2)[0];
  const std::string expect(cell);
  snap.reset();  // the view's pin is now the only holder
  ASSERT_EQ(view.table().num_rows(), 150u);
  ASSERT_EQ(cell, expect);
}

TEST(TableViewTest, HistogramOverMaterializedViewMatchesMaskedHistogram) {
  Rng rng(0xB14);
  const size_t rows = kChunkRows + 77;
  std::vector<int64_t> codes(rows);
  std::vector<double> zeros(rows, 0.0);
  std::vector<std::string> tags(rows, "t");
  for (size_t r = 0; r < rows; ++r) {
    codes[r] = static_cast<int64_t>(rng.NextBounded(16));
  }
  Result<Table> table = Table::FromColumns(
      TestSchema(), {std::move(codes), std::move(zeros), std::move(tags)});
  ASSERT_TRUE(table.ok());
  const HistogramQuery query{"age", Domain1D::Categorical(16), std::nullopt};

  RowMask mask(rows);
  for (size_t r = 0; r < rows; ++r) {
    if (rng.NextBernoulli(0.4)) mask.Set(r);
  }
  Result<Histogram> masked = ComputeHistogramMasked(*table, query, mask);
  Result<Histogram> via_view =
      ComputeHistogram(table->SelectRowsView(mask).Materialize(), query);
  ASSERT_TRUE(masked.ok());
  ASSERT_TRUE(via_view.ok());
  for (size_t b = 0; b < masked->size(); ++b) {
    ASSERT_DOUBLE_EQ((*via_view)[b], (*masked)[b]) << "bin " << b;
  }
}

TEST(TableViewTest, OsdpRRViewMatchesMaterializedRelease) {
  Rng rng(0x05D9);
  const Table table = RandomTable(3000, rng);
  const Policy policy =
      Policy::SensitiveWhen(Predicate::Lt("age", Value(30)), "p");

  const RowMask non_sensitive = policy.NonSensitiveRowMask(table);
  Rng rng_release(42);
  Result<TableView> view =
      OsdpRRReleaseView(table, non_sensitive, 0.7, rng_release);
  ASSERT_TRUE(view.ok());
  ASSERT_TRUE(view->mask().IsSubsetOf(non_sensitive));

  // The materialized release is the gather of exactly the view's rows.
  const std::vector<size_t> rows = view->ToIndices();
  const Table materialized = view->Materialize();
  ASSERT_EQ(materialized.num_rows(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_EQ(RowAt(materialized, i), RowAt(table, rows[i])) << "row " << i;
  }
}

// --------------------------------------------------------- AlignedShards ---

TEST(AlignedShardsTest, EdgesAreAlignedAndCoverTheRange) {
  for (size_t rows : EdgeSizes()) {
    for (size_t shards : ShardCounts()) {
      for (size_t alignment : {size_t{64}, kChunkRows}) {
        const std::vector<size_t> edges =
            AlignedShards(rows, shards, alignment);
        ASSERT_GE(edges.size(), 2u);
        ASSERT_EQ(edges.front(), 0u);
        ASSERT_EQ(edges.back(), rows);
        for (size_t i = 1; i + 1 < edges.size(); ++i) {
          ASSERT_LT(edges[i - 1], edges[i]);
          ASSERT_EQ(edges[i] % alignment, 0u)
              << "rows=" << rows << " shards=" << shards
              << " alignment=" << alignment;
        }
      }
    }
  }
}

}  // namespace
}  // namespace osdp
