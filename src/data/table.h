// Table: columnar in-memory storage with typed column accessors.
//
// Columns are ChunkedColumns (src/data/chunked_column.h): sequences of
// fixed-size chunks shared by pointer through one spine per column.
// Copying a Table therefore copies a spine reference per column, not cells
// or chunk pointers — the copy-on-write property TableBuilder's O(1)
// snapshot publish is built on. Appending to a copy never disturbs the
// original (full chunks are immutable; a shared spine and tail chunk are
// privately copied before the first write through the copy).

#ifndef OSDP_DATA_TABLE_H_
#define OSDP_DATA_TABLE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "src/common/result.h"
#include "src/data/chunked_column.h"
#include "src/data/row_mask.h"
#include "src/data/schema.h"
#include "src/data/value.h"

namespace osdp {

class TableView;

/// \brief Columnar table. Whole columns go in (FromColumns) and batches are
/// appended (AppendRows); columns are read in bulk.
///
/// The policy layer classifies rows by index, and mechanisms select row
/// subsets, so the typed column views index by row throughout.
class Table {
 public:
  /// One fully-built column in flat form — the bulk-ingest input format
  /// (FromColumns chunks it on adoption, moving each cell exactly once).
  using ColumnData = std::variant<std::vector<int64_t>, std::vector<double>,
                                  std::vector<std::string>>;

  Table() = default;
  /// Creates an empty table with the given schema.
  explicit Table(Schema schema);

  /// \brief Bulk columnar ingest: adopts fully-built column vectors without
  /// copying or boxing a single cell (cells are moved into chunks). Errors
  /// if the column count differs from the schema arity, any column's type
  /// mismatches its field, or the columns have unequal lengths. This is the
  /// fast path for dataset generation and CSV loading — construction cost
  /// is the moves, so ingest is bound by producing the data, not by
  /// re-storing it.
  static Result<Table> FromColumns(Schema schema,
                                   std::vector<ColumnData> columns);

  /// The table's schema.
  const Schema& schema() const { return schema_; }
  /// Number of rows.
  size_t num_rows() const { return num_rows_; }
  /// Number of columns.
  size_t num_columns() const { return schema_.num_fields(); }

  /// \brief Appends every row of `other` (whose schema must equal this
  /// table's), column-at-a-time. This is the streaming-ingest concatenation
  /// primitive: batch cost is proportional to the batch, not the
  /// accumulated table. When this table is chunk-aligned — including every
  /// self-append of a chunk-aligned table — the append shares `other`'s
  /// chunks instead of copying cells.
  Status AppendRows(const Table& other);

  /// \name Typed column views (abort on type mismatch).
  ///
  /// An int64 cell reads by value (`Int64Column(col)[row]` is an int64_t):
  /// sealed int64 chunks are frame-of-reference encoded. A double or string
  /// cell reference (e.g. `StringColumn(col)[row]`) follows per-chunk
  /// immutability, not whole-table mutability: cells never move within a
  /// chunk, so the reference stays valid until the last Table or Snapshot
  /// sharing the cell's chunk is destroyed. References into *sealed* chunks
  /// — rows below `num_rows() & ~(kChunkRows - 1)` — survive any number of
  /// later appends to this table. References into the partial tail chunk
  /// are invalidated by mutation: an append through a non-owning copy
  /// replaces the tail chunk (copy-on-write).
  /// @{
  const ChunkedColumn<int64_t>& Int64Column(size_t col) const;
  const ChunkedColumn<double>& DoubleColumn(size_t col) const;
  const ChunkedColumn<std::string>& StringColumn(size_t col) const;
  /// @}

  /// Typed int64 column view by name.
  Result<const ChunkedColumn<int64_t>*> Int64ColumnByName(
      const std::string& name) const;

  /// Selection push-down from a RowMask (which must cover num_rows()): the
  /// set rows, in ascending order, gathered column-at-a-time. Materializes
  /// the selected cells; for the zero-copy alternative see SelectRowsView.
  Table SelectRows(const RowMask& mask) const;

  /// \brief Zero-copy selection: a TableView over this table's rows whose
  /// mask bit is set (src/data/table_view.h). No cell is touched — the view
  /// is the mask plus a borrow of this table, so mechanisms and histogram
  /// evaluators can consume a selection without materializing it. The view
  /// borrows this table and must not outlive it (build the view from a
  /// SnapshotPtr to pin a generation instead).
  TableView SelectRowsView(RowMask mask) const;

 private:
  using Column = std::variant<ChunkedColumn<int64_t>, ChunkedColumn<double>,
                              ChunkedColumn<std::string>>;

  Schema schema_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
};

}  // namespace osdp

#endif  // OSDP_DATA_TABLE_H_
