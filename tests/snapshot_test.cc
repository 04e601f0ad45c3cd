// Tests for the streaming ingest data layer: TableBuilder's incremental
// policy classification, Snapshot immutability, and SnapshotStore's
// publish/capture semantics.
//
// The load-bearing property: a snapshot's non-sensitive mask after any
// sequence of ragged appends is bit-identical to a full
// Policy::NonSensitiveRowMask recompute over the same rows — the incremental
// word-boundary evaluation in TableBuilder::Append can never produce a torn
// or stale classification. And each generation is an immutable prefix of
// the next, rows and bits alike.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/check.h"
#include "src/data/snapshot.h"
#include "src/data/snapshot_store.h"
#include "src/data/table_builder.h"
#include "src/policy/policy.h"
#include "tests/serial_replay.h"
#include "tests/table_rows.h"

// Global allocation counters for the flat-publish property. Counting only
// (the semantics stay malloc/free); sized and array forms forward so every
// path is covered. GCC flags the malloc-backed replacement new against the
// free-backed replacement delete once inlining exposes the malloc — the pair
// is consistent, so the warning is noise here.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace {
std::atomic<uint64_t> g_allocations{0};
std::atomic<uint64_t> g_allocated_bytes{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(n, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace osdp {
namespace {

TEST(TableBuilderTest, IncrementalMaskMatchesFullRecomputeAcrossRaggedSizes) {
  // Batch sizes straddle every word-boundary case: sub-word, exactly one
  // word, word+1, and multi-word ragged. After every append the incremental
  // mask must equal a from-scratch classification of the accumulated table.
  const Policy policy = CensusPolicy();
  const std::vector<size_t> batch_sizes = {1, 63, 64, 65, 7, 127, 128, 129, 30};

  Table seed = CensusRows(37, 0xA0);  // deliberately not word-aligned
  Table reference = seed;
  TableBuilder builder = *TableBuilder::Create(seed, policy);

  uint64_t generation = 0;
  uint64_t batch_seed = 0xB000;
  for (size_t batch_rows : batch_sizes) {
    const Table batch = CensusRows(batch_rows, batch_seed++);
    ASSERT_TRUE(builder.Append(batch).ok());
    ASSERT_TRUE(reference.AppendRows(batch).ok());

    const SnapshotPtr snap = builder.BuildSnapshot(++generation);
    EXPECT_EQ(snap->generation, generation);
    ASSERT_EQ(snap->table.num_rows(), reference.num_rows());
    EXPECT_TRUE(snap->non_sensitive == policy.NonSensitiveRowMask(reference))
        << "incremental mask diverged after appending " << batch_rows
        << " rows (total " << reference.num_rows() << ")";
  }
}

TEST(TableBuilderTest, EachGenerationIsAnImmutablePrefixOfTheNext) {
  // The prefix contract MaskCache's extension relies on: generation g's rows
  // and non-sensitive bits are exactly the first n_g rows and bits of
  // generation g + 1, across ragged sizes, and g is unchanged by the append.
  const std::vector<size_t> batch_sizes = {1, 63, 64, 65, 4097, 30};
  TableBuilder builder = *TableBuilder::Create(CensusRows(37, 0xA7),
                                               CensusPolicy());
  SnapshotPtr prev = builder.BuildSnapshot(0);
  uint64_t batch_seed = 0xC000;
  for (size_t batch_rows : batch_sizes) {
    // Generation g's cells and bits, copied out before the append.
    const size_t n = prev->table.num_rows();
    const size_t columns = prev->table.num_columns();
    std::vector<Value> cells;
    for (size_t r = 0; r < n; ++r) {
      for (size_t c = 0; c < columns; ++c) {
        cells.push_back(CellAt(prev->table, r, c));
      }
    }
    const RowMask prev_bits = prev->non_sensitive;
    ASSERT_TRUE(builder.Append(CensusRows(batch_rows, batch_seed++)).ok());
    const SnapshotPtr next = builder.BuildSnapshot(prev->generation + 1);
    ASSERT_EQ(next->table.num_rows(), n + batch_rows);
    for (size_t r = 0; r < n; ++r) {
      for (size_t c = 0; c < columns; ++c) {
        ASSERT_EQ(CellAt(prev->table, r, c), cells[r * columns + c])
            << "row " << r << " column " << c;
        ASSERT_EQ(CellAt(next->table, r, c), cells[r * columns + c])
            << "row " << r << " column " << c;
      }
      ASSERT_EQ(next->non_sensitive.Test(r), prev->non_sensitive.Test(r))
          << "row " << r;
    }
    EXPECT_TRUE(prev->non_sensitive == prev_bits);
    prev = next;
  }
}

TEST(TableBuilderTest, FromSnapshotAdoptsTheMaskAndMatchesCreate) {
  // The no-rescan startup path: a builder seeded from an already-classified
  // snapshot behaves identically to one that classified the seed itself,
  // including after further ragged appends.
  const Policy policy = CensusPolicy();
  const Table seed = CensusRows(77, 0xAB);
  TableBuilder from_scratch = *TableBuilder::Create(seed, policy);
  TableBuilder from_snapshot =
      *TableBuilder::FromSnapshot(*from_scratch.BuildSnapshot(0), policy);

  const Table batch = CensusRows(65, 0xAC);
  ASSERT_TRUE(from_scratch.Append(batch).ok());
  ASSERT_TRUE(from_snapshot.Append(batch).ok());
  const SnapshotPtr a = from_scratch.BuildSnapshot(1);
  const SnapshotPtr b = from_snapshot.BuildSnapshot(1);
  EXPECT_TRUE(a->non_sensitive == b->non_sensitive);
  EXPECT_EQ(a->table.num_rows(), b->table.num_rows());
}

TEST(TableBuilderTest, FromSnapshotAndBuildSnapshotShareChunksNoCopy) {
  // Publish and restart are chunk-pointer adoption, not cell copies: every
  // chunk of the source snapshot is the *same object* (pointer identity) in
  // the restarted builder's next snapshot — and consecutive generations of
  // one builder share chunks the same way.
  const Policy policy = CensusPolicy();
  TableBuilder builder = *TableBuilder::Create(CensusRows(70, 0xB1), policy);
  const SnapshotPtr g0 = builder.BuildSnapshot(0);

  ASSERT_TRUE(builder.Append(CensusRows(40, 0xB2)).ok());
  const SnapshotPtr g1 = builder.BuildSnapshot(1);
  for (size_t c = 0; c < g0->table.num_columns(); ++c) {
    if (g0->table.schema().field(c).type != ValueType::kInt64) continue;
    const auto& col0 = g0->table.Int64Column(c);
    const auto& col1 = g1->table.Int64Column(c);
    for (size_t ci = 0; ci < col0.num_chunks(); ++ci) {
      EXPECT_EQ(col0.ChunkIdentity(ci), col1.ChunkIdentity(ci))
          << "generation chunk copied, col " << c << " chunk " << ci;
    }
  }

  TableBuilder restarted = *TableBuilder::FromSnapshot(*g1, policy);
  const SnapshotPtr g2 = restarted.BuildSnapshot(2);
  for (size_t c = 0; c < g1->table.num_columns(); ++c) {
    if (g1->table.schema().field(c).type != ValueType::kInt64) continue;
    const auto& col1 = g1->table.Int64Column(c);
    const auto& col2 = g2->table.Int64Column(c);
    ASSERT_EQ(col2.num_chunks(), col1.num_chunks());
    for (size_t ci = 0; ci < col1.num_chunks(); ++ci) {
      EXPECT_EQ(col2.ChunkIdentity(ci), col1.ChunkIdentity(ci))
          << "FromSnapshot copied col " << c << " chunk " << ci;
    }
  }
}

TEST(TableBuilderTest, GenerationsShareTheSpineAndEverySealedMaskBlock) {
  // Publishing shares storage instead of copying it: consecutive
  // generations hold the same column spines and mask spine, and every mask
  // block the older one sealed is the same object in the newer. Every
  // pinned generation keeps its rows and bits through later appends that
  // end mid-word, on a word, one past it, and one short of and one past a
  // chunk — the partial-word and tail-block copies.
  const Policy policy = CensusPolicy();
  TableBuilder builder =
      *TableBuilder::Create(CensusRows(5 * kChunkRows + 100, 0xD1), policy);
  // One chunk-crossing append first, so the spines have grown past the
  // seed's exact capacity and the appends below fit without growing.
  ASSERT_TRUE(builder.Append(CensusRows(kChunkRows, 0xD2)).ok());

  struct Pinned {
    SnapshotPtr snap;
    std::vector<Value> cells;
    std::vector<bool> bits;
  };
  const auto pin = [](SnapshotPtr snap) {
    Pinned p{std::move(snap), {}, {}};
    const Table& t = p.snap->table;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      for (size_t c = 0; c < t.num_columns(); ++c) {
        p.cells.push_back(CellAt(t, r, c));
      }
    }
    p.bits = p.snap->non_sensitive.ToBools();
    return p;
  };
  std::vector<Pinned> pinned;
  pinned.push_back(pin(builder.BuildSnapshot(1)));
  uint64_t batch_seed = 0xD300;
  for (size_t batch_rows : {size_t{1}, size_t{63}, size_t{64}, size_t{65},
                            kChunkRows - 1, kChunkRows + 1}) {
    ASSERT_TRUE(builder.Append(CensusRows(batch_rows, batch_seed++)).ok());
    const SnapshotPtr prev = pinned.back().snap;
    pinned.push_back(pin(builder.BuildSnapshot(prev->generation + 1)));
    const Snapshot& next = *pinned.back().snap;
    for (size_t c = 0; c < next.table.num_columns(); ++c) {
      if (next.table.schema().field(c).type != ValueType::kInt64) continue;
      EXPECT_EQ(next.table.Int64Column(c).SpineIdentity(),
                prev->table.Int64Column(c).SpineIdentity())
          << "column " << c << " spine copied after +" << batch_rows;
    }
    EXPECT_EQ(next.non_sensitive.SpineIdentity(),
              prev->non_sensitive.SpineIdentity())
        << "mask spine copied after +" << batch_rows;
    for (size_t b = 0; b < prev->table.num_rows() / kChunkRows; ++b) {
      EXPECT_EQ(next.non_sensitive.BlockIdentity(b),
                prev->non_sensitive.BlockIdentity(b))
          << "sealed mask block " << b << " copied after +" << batch_rows;
    }
  }
  for (const Pinned& p : pinned) {
    const Table& t = p.snap->table;
    size_t i = 0;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      for (size_t c = 0; c < t.num_columns(); ++c) {
        ASSERT_EQ(CellAt(t, r, c), p.cells[i++])
            << "generation " << p.snap->generation << " row " << r;
      }
    }
    EXPECT_EQ(p.snap->non_sensitive.ToBools(), p.bits)
        << "generation " << p.snap->generation;
    EXPECT_TRUE(p.snap->non_sensitive ==
                policy.NonSensitiveRowMask(p.snap->table))
        << "generation " << p.snap->generation;
  }
}

// A chunk-aligned table of `chunks` chunks, built by doubling one census
// chunk: aligned self-appends share chunks, so even a large table costs one
// chunk of cells.
Table DoubledTable(size_t chunks) {
  Table t = CensusRows(kChunkRows, 0xE1);
  while (t.num_rows() < chunks * kChunkRows) {
    OSDP_CHECK(t.AppendRows(t).ok());
  }
  return t;
}

TEST(TableBuilderTest, BuildSnapshotAllocatesTheSameBytesAtAnySize) {
  // Publishing is O(1) in the table size: cutting a snapshot allocates the
  // same bytes at 4 chunks as at 64 (allocation counts are deterministic
  // where a timing check is not), after a chunk-crossing append and after
  // one that leaves a partial tail.
  const Policy policy = CensusPolicy();
  std::vector<TableBuilder> builders;
  for (size_t chunks : {size_t{4}, size_t{64}}) {
    builders.push_back(*TableBuilder::Create(DoubledTable(chunks), policy));
  }
  for (size_t batch_rows : {kChunkRows + 7, size_t{100}}) {
    std::vector<uint64_t> bytes;
    std::vector<uint64_t> allocations;
    for (TableBuilder& builder : builders) {
      ASSERT_TRUE(builder.Append(CensusRows(batch_rows, 0xE2)).ok());
      const uint64_t bytes0 = g_allocated_bytes.load();
      const uint64_t allocations0 = g_allocations.load();
      const SnapshotPtr snap = builder.BuildSnapshot(1);
      bytes.push_back(g_allocated_bytes.load() - bytes0);
      allocations.push_back(g_allocations.load() - allocations0);
    }
    EXPECT_EQ(bytes[0], bytes[1]) << "after +" << batch_rows;
    EXPECT_EQ(allocations[0], allocations[1]) << "after +" << batch_rows;
  }
}

TEST(TableBuilderTest, AppendedRowsRoundTripExactly) {
  const Table seed = CensusRows(10, 0xA1);
  const Table batch = CensusRows(5, 0xA2);
  TableBuilder builder = *TableBuilder::Create(seed, CensusPolicy());
  ASSERT_TRUE(builder.Append(batch).ok());

  const SnapshotPtr snap = builder.BuildSnapshot(1);
  ASSERT_EQ(snap->table.num_rows(), 15u);
  for (size_t r = 0; r < 5; ++r) {
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      EXPECT_EQ(CellAt(snap->table, 10 + r, c), CellAt(batch, r, c));
    }
  }
}

TEST(TableBuilderTest, SnapshotsAreImmutableUnderLaterAppends) {
  TableBuilder builder = *TableBuilder::Create(CensusRows(20, 0xA3),
                                               CensusPolicy());
  const SnapshotPtr before = builder.BuildSnapshot(1);
  const RowMask mask_before = before->non_sensitive;

  ASSERT_TRUE(builder.Append(CensusRows(100, 0xA4)).ok());
  const SnapshotPtr after = builder.BuildSnapshot(2);

  // The earlier snapshot still describes generation 1 exactly.
  EXPECT_EQ(before->table.num_rows(), 20u);
  EXPECT_EQ(before->non_sensitive.size(), 20u);
  EXPECT_TRUE(before->non_sensitive == mask_before);
  EXPECT_EQ(after->table.num_rows(), 120u);
}

TEST(TableBuilderTest, EmptyBatchIsANoOp) {
  TableBuilder builder = *TableBuilder::Create(CensusRows(9, 0xA5),
                                               CensusPolicy());
  ASSERT_TRUE(builder.Append(CensusRows(0, 0xA6)).ok());
  EXPECT_EQ(builder.BuildSnapshot(1)->table.num_rows(), 9u);
  EXPECT_TRUE(builder.BuildSnapshot(1)->non_sensitive ==
              CensusPolicy().NonSensitiveRowMask(CensusRows(9, 0xA5)));
}

TEST(TableBuilderTest, SchemaMismatchRejectedWithoutMutation) {
  TableBuilder builder = *TableBuilder::Create(CensusRows(8, 0xA7),
                                               CensusPolicy());
  const Table wrong =
      TableFromRows(Schema({{"other", ValueType::kInt64}}), {{Value(1)}});
  const Status status = builder.Append(wrong);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(builder.BuildSnapshot(1)->table.num_rows(), 8u);
}

TEST(TableBuilderTest, CreateRejectsPolicyThatDoesNotTypeCheck) {
  const Policy bad = Policy::SensitiveWhen(
      Predicate::Eq("no_such_column", Value(1)), "bad");
  EXPECT_FALSE(TableBuilder::Create(CensusRows(4, 0xA8), bad).ok());
}

TEST(SnapshotStoreTest, PublishSwapsAndReadersKeepTheirCapture) {
  TableBuilder builder = *TableBuilder::Create(CensusRows(16, 0xA9),
                                               CensusPolicy());
  SnapshotStore store(builder.BuildSnapshot(0));
  EXPECT_EQ(store.Current()->generation, 0u);

  const SnapshotPtr captured = store.Current();
  ASSERT_TRUE(builder.Append(CensusRows(64, 0xAA)).ok());
  store.Publish(builder.BuildSnapshot(1));

  // New readers see generation 1; the pinned capture still is generation 0.
  EXPECT_EQ(store.Current()->generation, 1u);
  EXPECT_EQ(store.Current()->table.num_rows(), 80u);
  EXPECT_EQ(captured->generation, 0u);
  EXPECT_EQ(captured->table.num_rows(), 16u);
}

}  // namespace
}  // namespace osdp
