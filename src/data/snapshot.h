// Snapshot: one immutable generation of a streaming dataset — the table, its
// cached policy mask, and the generation id, published together.
//
// The OSDP threat model charges every release against the sensitive/
// non-sensitive split *at the moment of release*, so the data and the policy
// mask that classifies it must never be observable in a half-updated state:
// a reader holding rows from generation g and mask bits from generation g+1
// would compute x_ns over a split the accounting never saw. Snapshots make
// that impossible by construction — a snapshot is built completely, then
// published by pointer swap, and never mutated afterwards. Readers pin the
// generation they captured via shared_ptr and keep computing against it even
// while newer generations are published; memory is reclaimed when the last
// in-flight query releases its pin.

#ifndef OSDP_DATA_SNAPSHOT_H_
#define OSDP_DATA_SNAPSHOT_H_

#include <cstdint>
#include <memory>

#include "src/data/row_mask.h"
#include "src/data/table.h"

namespace osdp {

/// \brief One immutable generation of a streaming dataset.
///
/// Never mutated after publication: the table, the cached non-sensitive
/// mask, and the generation id all describe the same instant. Shared across
/// threads freely — all access is const.
///
/// Consecutive generations share their tables' chunk spines and their
/// masks' sealed 4096-row word blocks (docs/storage.md, "The prefix
/// contract"), so holding many generations alive costs one table and one
/// mask plus a tail chunk and a tail block per generation. Cutting a new
/// one is O(1) in the table size: it copies no cell, chunk pointer or mask
/// word.
struct Snapshot {
  /// Generation id: 0 for the seed dataset, +1 per ingested batch.
  uint64_t generation = 0;
  /// The dataset as of this generation.
  Table table;
  /// The policy's non-sensitive row mask over `table` (bit set = releasable),
  /// classified atomically with the rows it covers.
  RowMask non_sensitive;
};

/// How snapshots are held and handed out: immutable and reference-counted.
using SnapshotPtr = std::shared_ptr<const Snapshot>;

}  // namespace osdp

#endif  // OSDP_DATA_SNAPSHOT_H_
