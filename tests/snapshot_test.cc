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

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/data/snapshot.h"
#include "src/data/snapshot_store.h"
#include "src/data/table_builder.h"
#include "src/policy/policy.h"
#include "tests/serial_replay.h"

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
        cells.push_back(prev->table.GetValue(r, c));
      }
    }
    const RowMask prev_bits = prev->non_sensitive;
    ASSERT_TRUE(builder.Append(CensusRows(batch_rows, batch_seed++)).ok());
    const SnapshotPtr next = builder.BuildSnapshot(prev->generation + 1);
    ASSERT_EQ(next->table.num_rows(), n + batch_rows);
    for (size_t r = 0; r < n; ++r) {
      for (size_t c = 0; c < columns; ++c) {
        ASSERT_EQ(prev->table.GetValue(r, c), cells[r * columns + c])
            << "row " << r << " column " << c;
        ASSERT_EQ(next->table.GetValue(r, c), cells[r * columns + c])
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

TEST(TableBuilderTest, AppendedRowsRoundTripExactly) {
  const Table seed = CensusRows(10, 0xA1);
  const Table batch = CensusRows(5, 0xA2);
  TableBuilder builder = *TableBuilder::Create(seed, CensusPolicy());
  ASSERT_TRUE(builder.Append(batch).ok());

  const SnapshotPtr snap = builder.BuildSnapshot(1);
  ASSERT_EQ(snap->table.num_rows(), 15u);
  for (size_t r = 0; r < 5; ++r) {
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      EXPECT_EQ(snap->table.GetValue(10 + r, c), batch.GetValue(r, c));
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
  EXPECT_EQ(builder.num_rows(), 9u);
  EXPECT_TRUE(builder.BuildSnapshot(1)->non_sensitive ==
              CensusPolicy().NonSensitiveRowMask(CensusRows(9, 0xA5)));
}

TEST(TableBuilderTest, SchemaMismatchRejectedWithoutMutation) {
  TableBuilder builder = *TableBuilder::Create(CensusRows(8, 0xA7),
                                               CensusPolicy());
  Table wrong(Schema({{"other", ValueType::kInt64}}));
  ASSERT_TRUE(wrong.AppendRow({Value(1)}).ok());
  const Status status = builder.Append(wrong);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(builder.num_rows(), 8u);
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
