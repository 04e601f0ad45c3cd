#include "src/data/table.h"

#include "src/common/check.h"
#include "src/data/table_view.h"

namespace osdp {

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(schema_.num_fields());
  for (const Field& f : schema_.fields()) {
    switch (f.type) {
      case ValueType::kInt64:
        columns_.emplace_back(ChunkedColumn<int64_t>{});
        break;
      case ValueType::kDouble:
        columns_.emplace_back(ChunkedColumn<double>{});
        break;
      case ValueType::kString:
        columns_.emplace_back(ChunkedColumn<std::string>{});
        break;
    }
  }
}

namespace {

ValueType FlatColumnType(const Table::ColumnData& column) {
  switch (column.index()) {
    case 0:
      return ValueType::kInt64;
    case 1:
      return ValueType::kDouble;
    default:
      return ValueType::kString;
  }
}

size_t FlatColumnLength(const Table::ColumnData& column) {
  return std::visit([](const auto& v) { return v.size(); }, column);
}

}  // namespace

Result<Table> Table::FromColumns(Schema schema,
                                 std::vector<ColumnData> columns) {
  if (columns.size() != schema.num_fields()) {
    return Status::InvalidArgument(
        "column count " + std::to_string(columns.size()) +
        " != schema arity " + std::to_string(schema.num_fields()));
  }
  const size_t rows = columns.empty() ? 0 : FlatColumnLength(columns[0]);
  for (size_t i = 0; i < columns.size(); ++i) {
    if (FlatColumnType(columns[i]) != schema.field(i).type) {
      return Status::InvalidArgument(
          "type mismatch in column '" + schema.field(i).name + "': expected " +
          ValueTypeToString(schema.field(i).type) + ", got " +
          ValueTypeToString(FlatColumnType(columns[i])));
    }
    if (FlatColumnLength(columns[i]) != rows) {
      return Status::InvalidArgument(
          "column '" + schema.field(i).name + "' has " +
          std::to_string(FlatColumnLength(columns[i])) + " rows, expected " +
          std::to_string(rows));
    }
  }
  Table table;
  table.schema_ = std::move(schema);
  table.columns_.reserve(columns.size());
  for (ColumnData& flat : columns) {
    std::visit(
        [&](auto& v) {
          table.columns_.emplace_back(
              ChunkedColumn<typename std::decay_t<decltype(v)>::value_type>::
                  FromFlat(std::move(v)));
        },
        flat);
  }
  table.num_rows_ = rows;
  return table;
}

Status Table::AppendRows(const Table& other) {
  if (!(other.schema_ == schema_)) {
    return Status::InvalidArgument("cannot append rows of schema " +
                                   other.schema_.ToString() +
                                   " to a table of schema " +
                                   schema_.ToString());
  }
  // ChunkedColumn::Append handles &other == this: chunk-aligned columns
  // share their own chunks (no cell copies), misaligned ones repack from a
  // pointer-snapshot of the chunk list.
  for (size_t c = 0; c < columns_.size(); ++c) {
    std::visit(
        [&](auto& dst) {
          dst.Append(std::get<std::decay_t<decltype(dst)>>(other.columns_[c]));
        },
        columns_[c]);
  }
  num_rows_ += other.num_rows_;
  return Status::OK();
}

const ChunkedColumn<int64_t>& Table::Int64Column(size_t col) const {
  OSDP_CHECK(col < columns_.size());
  return std::get<ChunkedColumn<int64_t>>(columns_[col]);
}

const ChunkedColumn<double>& Table::DoubleColumn(size_t col) const {
  OSDP_CHECK(col < columns_.size());
  return std::get<ChunkedColumn<double>>(columns_[col]);
}

const ChunkedColumn<std::string>& Table::StringColumn(size_t col) const {
  OSDP_CHECK(col < columns_.size());
  return std::get<ChunkedColumn<std::string>>(columns_[col]);
}

Result<const ChunkedColumn<int64_t>*> Table::Int64ColumnByName(
    const std::string& name) const {
  OSDP_ASSIGN_OR_RETURN(size_t idx, schema_.FieldIndex(name));
  if (schema_.field(idx).type != ValueType::kInt64) {
    return Status::InvalidArgument("column '" + name + "' is not int64");
  }
  return &Int64Column(idx);
}

Table Table::SelectRows(const RowMask& mask) const {
  OSDP_CHECK(mask.size() == num_rows_);
  Table out(schema_);
  for (size_t c = 0; c < columns_.size(); ++c) {
    std::visit(
        [&](const auto& src) {
          auto& dst = std::get<std::decay_t<decltype(src)>>(out.columns_[c]);
          mask.ForEachSet([&](size_t r) { dst.push_back(src[r]); });
        },
        columns_[c]);
  }
  out.num_rows_ = mask.Count();
  return out;
}

TableView Table::SelectRowsView(RowMask mask) const {
  return TableView(*this, std::move(mask));
}

}  // namespace osdp
