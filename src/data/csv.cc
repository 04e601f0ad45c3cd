#include "src/data/csv.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <unordered_set>
#include <vector>

namespace osdp {

namespace {

// Splits CSV text into rows of fields, honouring quoted fields.
Result<std::vector<std::vector<std::string>>> SplitCsv(
    const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;
  bool field_quoted = false;  // a closing quote must end the field
  size_t i = 0;
  auto end_field = [&]() {
    row.push_back(std::move(field));
    field.clear();
    field_started = false;
    field_quoted = false;
  };
  auto end_row = [&]() {
    end_field();
    // Skip completely blank physical lines.
    if (!(row.size() == 1 && row[0].empty())) rows.push_back(std::move(row));
    row = {};
  };
  while (i < text.size()) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          i += 2;
          continue;
        }
        in_quotes = false;
        ++i;
        continue;
      }
      field += c;
      ++i;
      continue;
    }
    switch (c) {
      case '"':
        // A quote may only *open* a field; `x"y` and `"x""` (re-opening a
        // closed quoted field) are malformed, not data.
        if (field_started) {
          return Status::InvalidArgument(
              "quote inside unquoted field near position " + std::to_string(i));
        }
        in_quotes = true;
        field_started = true;
        field_quoted = true;
        ++i;
        break;
      case ',':
        end_field();
        ++i;
        break;
      case '\r':
        // Only the CR of a CRLF line ending; a bare CR inside a field would
        // otherwise be silently deleted from the data.
        if (i + 1 >= text.size() || text[i + 1] != '\n') {
          return Status::InvalidArgument(
              "bare carriage return (not part of CRLF) at position " +
              std::to_string(i));
        }
        ++i;
        break;
      case '\n':
        end_row();
        ++i;
        break;
      default:
        if (field_quoted) {
          // `"x"y`: data after the closing quote would be silently glued to
          // the field if accepted — reject it instead.
          return Status::InvalidArgument(
              "unquoted character after closing quote near position " +
              std::to_string(i));
        }
        field += c;
        field_started = true;
        ++i;
        break;
    }
  }
  if (in_quotes) return Status::InvalidArgument("unterminated quoted field");
  if (field_started || !row.empty()) end_row();
  return rows;
}

// A run of digits that strtoll parses without ERANGE: an out-of-range value
// is not an int64 (inference falls back to double; an int64 schema rejects
// it) rather than being clamped to INT64_MIN/MAX.
bool LooksLikeInt(const std::string& s) {
  if (s.empty()) return false;
  size_t i = (s[0] == '-' || s[0] == '+') ? 1 : 0;
  if (i == s.size()) return false;
  for (; i < s.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(s[i]))) return false;
  }
  errno = 0;
  std::strtoll(s.c_str(), nullptr, 10);
  return errno != ERANGE;
}

bool LooksLikeDouble(const std::string& s) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  // Underflow sets ERANGE too, but still returns the nearest double (a
  // subnormal WriteCsvTable may have written); overflow returns ±HUGE_VAL.
  return (errno == 0 || std::isfinite(v)) && end == s.c_str() + s.size();
}

std::string EscapeField(const std::string& s) {
  if (s.find_first_of(",\"\n\r") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += "\"";
  return out;
}

Result<Table> BuildTable(const std::vector<std::vector<std::string>>& rows,
                         const Schema& schema) {
  // Parse straight into typed column vectors and adopt them via
  // FromColumns — no per-cell Value boxing, so loading is bound by parsing.
  const size_t num_fields = schema.num_fields();
  const size_t data_rows = rows.size() > 0 ? rows.size() - 1 : 0;
  std::vector<Table::ColumnData> columns;
  columns.reserve(num_fields);
  for (size_t c = 0; c < num_fields; ++c) {
    switch (schema.field(c).type) {
      case ValueType::kInt64: {
        std::vector<int64_t> col;
        col.reserve(data_rows);
        columns.emplace_back(std::move(col));
        break;
      }
      case ValueType::kDouble: {
        std::vector<double> col;
        col.reserve(data_rows);
        columns.emplace_back(std::move(col));
        break;
      }
      case ValueType::kString: {
        std::vector<std::string> col;
        col.reserve(data_rows);
        columns.emplace_back(std::move(col));
        break;
      }
    }
  }

  for (size_t r = 1; r < rows.size(); ++r) {
    const auto& cells = rows[r];
    if (cells.size() != num_fields) {
      return Status::InvalidArgument(
          "row " + std::to_string(r) + " has " + std::to_string(cells.size()) +
          " fields, expected " + std::to_string(num_fields));
    }
    for (size_t c = 0; c < cells.size(); ++c) {
      switch (schema.field(c).type) {
        case ValueType::kInt64: {
          if (!LooksLikeInt(cells[c])) {
            return Status::InvalidArgument("row " + std::to_string(r) +
                                           ": '" + cells[c] +
                                           "' is not an int64");
          }
          std::get<std::vector<int64_t>>(columns[c])
              .push_back(static_cast<int64_t>(
                  std::strtoll(cells[c].c_str(), nullptr, 10)));
          break;
        }
        case ValueType::kDouble: {
          if (!LooksLikeDouble(cells[c])) {
            return Status::InvalidArgument("row " + std::to_string(r) +
                                           ": '" + cells[c] +
                                           "' is not numeric");
          }
          std::get<std::vector<double>>(columns[c])
              .push_back(std::strtod(cells[c].c_str(), nullptr));
          break;
        }
        case ValueType::kString:
          std::get<std::vector<std::string>>(columns[c]).push_back(cells[c]);
          break;
      }
    }
  }
  return Table::FromColumns(schema, std::move(columns));
}

}  // namespace

Result<Table> ReadCsvTable(const std::string& csv_text) {
  OSDP_ASSIGN_OR_RETURN(auto rows, SplitCsv(csv_text));
  if (rows.empty()) return Status::InvalidArgument("empty CSV");
  if (rows.size() < 2) {
    return Status::InvalidArgument("CSV has a header but no data rows");
  }
  // Untrusted headers may repeat a name; Schema requires unique ones.
  std::unordered_set<std::string> names;
  for (const std::string& name : rows[0]) {
    if (!names.insert(name).second) {
      return Status::InvalidArgument("duplicate column name '" + name +
                                     "' in CSV header");
    }
  }
  // Infer each column's type from the data rows: int64 ⊂ double ⊂ string.
  const size_t cols = rows[0].size();
  std::vector<Field> fields;
  for (size_t c = 0; c < cols; ++c) {
    bool all_int = true, all_double = true;
    for (size_t r = 1; r < rows.size(); ++r) {
      if (rows[r].size() != cols) {
        return Status::InvalidArgument("ragged CSV at row " + std::to_string(r));
      }
      all_int = all_int && LooksLikeInt(rows[r][c]);
      all_double = all_double && LooksLikeDouble(rows[r][c]);
    }
    ValueType t = all_int ? ValueType::kInt64
                          : (all_double ? ValueType::kDouble
                                        : ValueType::kString);
    fields.push_back({rows[0][c], t});
  }
  return BuildTable(rows, Schema(std::move(fields)));
}

Result<Table> ReadCsvTable(const std::string& csv_text, const Schema& schema) {
  OSDP_ASSIGN_OR_RETURN(auto rows, SplitCsv(csv_text));
  if (rows.empty()) return Status::InvalidArgument("empty CSV");
  if (rows[0].size() != schema.num_fields()) {
    return Status::InvalidArgument("header arity does not match schema");
  }
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    if (rows[0][c] != schema.field(c).name) {
      return Status::InvalidArgument("header '" + rows[0][c] +
                                     "' does not match schema column '" +
                                     schema.field(c).name + "'");
    }
  }
  return BuildTable(rows, schema);
}

std::string WriteCsvTable(const Table& table) {
  std::string out;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (c) out += ",";
    out += EscapeField(table.schema().field(c).name);
  }
  out += "\n";
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c) out += ",";
      switch (table.schema().field(c).type) {
        case ValueType::kInt64:
          out += std::to_string(table.Int64Column(c)[r]);
          break;
        case ValueType::kDouble: {
          // The shortest text that strtod reads back to the same double.
          char buf[32];
          const std::to_chars_result done =
              std::to_chars(buf, buf + sizeof(buf), table.DoubleColumn(c)[r]);
          out.append(buf, done.ptr);
          break;
        }
        case ValueType::kString:
          out += EscapeField(table.StringColumn(c)[r]);
          break;
      }
    }
    out += "\n";
  }
  return out;
}

Status WriteStringToFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  out << content;
  if (!out) return Status::IOError("write to '" + path + "' failed");
  return Status::OK();
}

}  // namespace osdp
