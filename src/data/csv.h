// Minimal CSV import/export for tables, so policies and experiments can run
// against user-supplied data.
//
// Dialect: comma-separated, first row is the header, double quotes escape
// fields containing commas/quotes/newlines ("" escapes a quote). Column
// types are either supplied or inferred from every data row: int64 if each
// value is an integer within int64 range, else double if each is numeric,
// else string. An int64 column rejects a value outside int64 range rather
// than clamping it.

#ifndef OSDP_DATA_CSV_H_
#define OSDP_DATA_CSV_H_

#include <string>

#include "src/common/result.h"
#include "src/data/table.h"

namespace osdp {

/// \brief Parses CSV text into a Table, inferring column types.
Result<Table> ReadCsvTable(const std::string& csv_text);

/// \brief Parses CSV text with an explicit schema (header names must match).
Result<Table> ReadCsvTable(const std::string& csv_text, const Schema& schema);

/// \brief Renders a table as CSV text (with header). Doubles are written as
/// the shortest text that ReadCsvTable reads back to the same bits.
std::string WriteCsvTable(const Table& table);

/// \brief Writes a string to a file, overwriting.
Status WriteStringToFile(const std::string& path, const std::string& content);

}  // namespace osdp

#endif  // OSDP_DATA_CSV_H_
