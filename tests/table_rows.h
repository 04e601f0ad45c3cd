// Row-at-a-time construction and reads of a Table, for tests, the reference
// evaluators and the boxed bench rows. The library writes tables through
// Table::FromColumns and Table::AppendRows (TableBuilder) and reads typed
// columns; these helpers box cells as dynamic Values so a test can state a
// table as a list of rows and compare cells without naming their types.

#ifndef OSDP_TESTS_TABLE_ROWS_H_
#define OSDP_TESTS_TABLE_ROWS_H_

#include <cstddef>
#include <string>
#include <variant>
#include <vector>

#include "src/common/check.h"
#include "src/data/schema.h"
#include "src/data/table.h"
#include "src/data/value.h"

namespace osdp {

/// A row materialized as dynamic values.
using Row = std::vector<Value>;

/// A table of `schema` holding `rows` in order, built through
/// Table::FromColumns. Aborts if a row's arity or a cell's type does not
/// match the schema.
inline Table TableFromRows(const Schema& schema, const std::vector<Row>& rows) {
  std::vector<Table::ColumnData> columns;
  columns.reserve(schema.num_fields());
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    switch (schema.field(c).type) {
      case ValueType::kInt64:
        columns.emplace_back(std::vector<int64_t>{});
        break;
      case ValueType::kDouble:
        columns.emplace_back(std::vector<double>{});
        break;
      case ValueType::kString:
        columns.emplace_back(std::vector<std::string>{});
        break;
    }
  }
  for (const Row& row : rows) {
    OSDP_CHECK_MSG(row.size() == schema.num_fields(),
                   "row arity " << row.size() << " != schema arity "
                                << schema.num_fields());
    for (size_t c = 0; c < row.size(); ++c) {
      OSDP_CHECK_MSG(row[c].type() == schema.field(c).type,
                     "cell type mismatch in column " << schema.field(c).name);
      switch (row[c].type()) {
        case ValueType::kInt64:
          std::get<std::vector<int64_t>>(columns[c]).push_back(
              row[c].AsInt64());
          break;
        case ValueType::kDouble:
          std::get<std::vector<double>>(columns[c]).push_back(
              row[c].AsDouble());
          break;
        case ValueType::kString:
          std::get<std::vector<std::string>>(columns[c]).push_back(
              row[c].AsString());
          break;
      }
    }
  }
  return *Table::FromColumns(schema, std::move(columns));
}

/// The cell at (row, col) as a dynamic Value (copies strings).
inline Value CellAt(const Table& table, size_t row, size_t col) {
  OSDP_CHECK(row < table.num_rows() && col < table.num_columns());
  switch (table.schema().field(col).type) {
    case ValueType::kInt64:
      return Value(table.Int64Column(col)[row]);
    case ValueType::kDouble:
      return Value(table.DoubleColumn(col)[row]);
    case ValueType::kString:
      return Value(table.StringColumn(col)[row]);
  }
  return Value();
}

/// Row `row` of `table` as dynamic values.
inline Row RowAt(const Table& table, size_t row) {
  Row out;
  out.reserve(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    out.push_back(CellAt(table, row, c));
  }
  return out;
}

/// Every cell of `col` in order, as one flat vector.
template <typename T>
std::vector<T> ColumnCells(const ChunkedColumn<T>& col) {
  std::vector<T> out;
  out.reserve(col.size());
  col.ForEachSpan(0, col.size(), [&](const auto& cells, size_t /*begin*/,
                                     size_t len) {
    for (size_t i = 0; i < len; ++i) out.push_back(cells[i]);
  });
  return out;
}

}  // namespace osdp

#endif  // OSDP_TESTS_TABLE_ROWS_H_
