// TableView: a zero-copy row selection over a Table — the table (or a
// pinned Snapshot generation) and a RowMask, with no cell materialization.
//
// SelectRows copies every selected cell into a fresh table; a TableView is
// just the selection itself. Mechanisms that only *iterate* the selected
// rows (randomized-response release, masked histograms) consume the view
// directly and never pay the gather; callers that genuinely need an owned
// table call Materialize(), which is exactly SelectRows. Because chunks are
// immutable once sealed and a snapshot pins its chunks, a view built from a
// SnapshotPtr stays valid while the view is alive no matter how many newer
// generations are published.

#ifndef OSDP_DATA_TABLE_VIEW_H_
#define OSDP_DATA_TABLE_VIEW_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/data/row_mask.h"
#include "src/data/snapshot.h"
#include "src/data/table.h"

namespace osdp {

/// \brief An immutable selection of rows of one table: the rows whose
/// mask bit is set. The mask has one bit per table row. Cheap to copy (mask
/// words + two pointers); all access is const and thread-safe.
class TableView {
 public:
  /// Borrowing view: `table` must outlive the view. `mask` bit i selects
  /// row i; `mask.size()` must equal the table's rows.
  TableView(const Table& table, RowMask mask)
      : table_(&table), mask_(std::move(mask)), selected_(mask_.Count()) {
    OSDP_CHECK(mask_.size() == table_->num_rows());
  }

  /// Pinning view over a snapshot generation: the snapshot (and through it
  /// every chunk of its table) stays alive as long as the view does.
  TableView(SnapshotPtr snapshot, RowMask mask)
      : snapshot_(std::move(snapshot)),
        table_(&snapshot_->table),
        mask_(std::move(mask)),
        selected_(mask_.Count()) {
    OSDP_CHECK(mask_.size() == table_->num_rows());
  }

  /// The underlying table (never null).
  const Table& table() const { return *table_; }
  /// The pinned snapshot, or nullptr for a borrowing view.
  const SnapshotPtr& snapshot() const { return snapshot_; }
  /// True iff no row is selected.
  bool empty() const { return selected_ == 0; }
  /// The selection mask (bit i = table row i) — the bridge into mask
  /// consumers (masked histograms, mask algebra).
  const RowMask& mask() const { return mask_; }

  /// Calls fn(row) for every selected row, in ascending row order. Cost is
  /// proportional to the number of selected rows.
  template <typename Fn>
  void ForEachRow(Fn&& fn) const {
    mask_.ForEachSet(fn);
  }

  /// The selected rows as an ascending index vector.
  std::vector<size_t> ToIndices() const { return mask_.ToIndices(); }

  /// Materializes the selection as an owned Table (the SelectRows gather —
  /// the one place a view pays the copy).
  Table Materialize() const { return table_->SelectRows(mask_); }

 private:
  SnapshotPtr snapshot_;  // null for borrowing views
  const Table* table_;
  RowMask mask_;
  size_t selected_;
};

}  // namespace osdp

#endif  // OSDP_DATA_TABLE_VIEW_H_
