// TableBuilder: the single-writer accumulation side of the streaming ingest
// path. Appends row batches to a growing table, classifies each batch with
// the policy's compiled predicate incrementally (only the appended rows are
// scanned), and cuts immutable Snapshots on demand. It is also how every
// generation 0 is classified: OsdpEngine::Create cuts its snapshot here.
//
// The builder itself is *not* thread-safe — it is the writer's private
// state. Thread-safety lives one level up: the writer serializes Append +
// BuildSnapshot, and readers only ever see the immutable snapshots it
// publishes (through a SnapshotStore).

#ifndef OSDP_DATA_TABLE_BUILDER_H_
#define OSDP_DATA_TABLE_BUILDER_H_

#include <cstdint>

#include "src/common/result.h"
#include "src/data/compiled_predicate.h"
#include "src/data/row_mask.h"
#include "src/data/snapshot.h"
#include "src/data/table.h"
#include "src/policy/policy.h"

namespace osdp {

/// A batch of rows to ingest: a table with the same schema as the dataset,
/// built with Table::FromColumns.
using RowBatch = Table;

/// \brief Accumulates appended row batches and their policy classification,
/// and cuts immutable Snapshots of the current state.
///
/// The policy's P (NOT of its sensitivity predicate, so a set bit marks a
/// non-sensitive row) is compiled once at construction, and the builder keeps
/// the non-sensitive mask the snapshots carry. Each Append evaluates P over
/// just the new rows (CompiledPredicate::EvalRangeInto from the last word
/// boundary), so ingest cost is proportional to the batch, not the
/// accumulated table. BuildSnapshot is O(1) in the accumulated size: the
/// snapshot's columns and mask share the builder's chunk spines and mask
/// blocks (src/data/chunk_spine.h). Immutability of what readers see is
/// guaranteed by the single-writer discipline: the builder keeps appending
/// in place, but only cells and spine slots past every published
/// generation's recorded size, and it copies a mask block a snapshot can
/// see (its partial last one) before writing into it.
class TableBuilder {
 public:
  /// Seeds the builder with `seed` (which becomes the generation-0 contents),
  /// compiles `policy` against its schema and classifies every seed row
  /// once. Errors if the predicate does not type-check against the schema:
  /// NotFound for an unknown column, InvalidArgument for a string/numeric
  /// comparison.
  static Result<TableBuilder> Create(Table seed, const Policy& policy);

  /// Seeds the builder from an already-classified snapshot: adopts the
  /// snapshot's table *chunks* (no cell is read or copied —
  /// tests/snapshot_test.cc pins this by chunk identity) and shares its mask
  /// blocks instead of re-scanning the seed rows — the startup path for a
  /// service whose engine already cut generation 0. The first Append clones
  /// the spines once, since the snapshot keeps reading them.
  /// `policy` must be the policy that produced the snapshot's mask; only the
  /// predicate is (re)compiled.
  static Result<TableBuilder> FromSnapshot(const Snapshot& snapshot,
                                           const Policy& policy);

  /// \brief Appends `batch` and classifies its rows incrementally.
  /// InvalidArgument (and no mutation) if the batch schema differs from the
  /// dataset schema. An empty batch is a no-op.
  Status Append(const RowBatch& batch);

  /// \brief Cuts an immutable snapshot of the current contents, tagged
  /// `generation`. The snapshot's non-sensitive mask is a copy of the
  /// incrementally-maintained one — bit-identical to a full
  /// Policy::NonSensitiveRowMask recompute over the same rows (pinned by
  /// tests/snapshot_test.cc). The table and mask copies share every chunk,
  /// spine and sealed mask block with the builder (and with every other
  /// generation): publish is O(1), independent of how many rows have
  /// accumulated, and allocates the same bytes at any size.
  SnapshotPtr BuildSnapshot(uint64_t generation) const;

 private:
  TableBuilder(Table table, CompiledPredicate non_sensitive, RowMask mask)
      : table_(std::move(table)),
        non_sensitive_(std::move(non_sensitive)),
        non_sensitive_mask_(std::move(mask)) {}

  Table table_;
  CompiledPredicate non_sensitive_;  // the policy's P, compiled once
  RowMask non_sensitive_mask_;       // maintained incrementally per Append
};

}  // namespace osdp

#endif  // OSDP_DATA_TABLE_BUILDER_H_
