// Tests for CSV table import-export.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <vector>

#include "src/common/check.h"
#include "src/data/csv.h"
#include "tests/table_rows.h"

namespace osdp {
namespace {

TEST(CsvTest, ReadsAndInfersTypes) {
  const std::string csv =
      "age,salary,name\n"
      "15,1000.5,alice\n"
      "40,0,bob\n";
  Table t = *ReadCsvTable(csv);
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.schema().field(0).type, ValueType::kInt64);
  EXPECT_EQ(t.schema().field(1).type, ValueType::kDouble);  // mixed → double
  EXPECT_EQ(t.schema().field(2).type, ValueType::kString);
  EXPECT_EQ(t.Int64Column(0)[0], 15);
  EXPECT_DOUBLE_EQ(t.DoubleColumn(1)[0], 1000.5);
  EXPECT_EQ(t.StringColumn(2)[1], "bob");
}

TEST(CsvTest, QuotedFieldsWithCommasAndQuotes) {
  const std::string csv =
      "name,notes\n"
      "\"smith, john\",\"said \"\"hi\"\"\"\n";
  Table t = *ReadCsvTable(csv);
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.StringColumn(0)[0], "smith, john");
  EXPECT_EQ(t.StringColumn(1)[0], "said \"hi\"");
}

TEST(CsvTest, RoundTripsThroughWrite) {
  const Table t = TableFromRows(Schema({{"a", ValueType::kInt64},
                                        {"b", ValueType::kDouble},
                                        {"c", ValueType::kString}}),
                                {{Value(1), Value(2.5), Value("x,y")},
                                 {Value(-7), Value(0.0), Value("plain")}});
  Table back = *ReadCsvTable(WriteCsvTable(t), t.schema());
  ASSERT_EQ(back.num_rows(), 2u);
  EXPECT_EQ(back.Int64Column(0)[1], -7);
  EXPECT_EQ(back.StringColumn(2)[0], "x,y");

  // Doubles come back bit for bit. A default ostream keeps 6 significant
  // digits: 1.23456789 would come back as 1.23457 and 0.1 + 0.2 as 0.3.
  const std::vector<double> values = {1.23456789,
                                      0.1 + 0.2,
                                      -0.0,
                                      1.0 / 3.0,
                                      123456789012345678.0,
                                      std::numeric_limits<double>::max(),
                                      std::numeric_limits<double>::min(),
                                      std::numeric_limits<double>::denorm_min(),
                                      -1e-310,
                                      -2.5e-300};
  std::vector<Row> rows;
  for (double v : values) rows.push_back({Value(v)});
  const Table doubles =
      TableFromRows(Schema({{"d", ValueType::kDouble}}), rows);
  const Result<Table> read = ReadCsvTable(WriteCsvTable(doubles),
                                         doubles.schema());
  ASSERT_TRUE(read.ok()) << read.status();
  const Table& doubles_back = *read;
  ASSERT_EQ(doubles_back.num_rows(), values.size());
  for (size_t r = 0; r < values.size(); ++r) {
    uint64_t want = 0;
    uint64_t got = 0;
    std::memcpy(&want, &values[r], sizeof(want));
    std::memcpy(&got, &doubles_back.DoubleColumn(0)[r], sizeof(got));
    EXPECT_EQ(got, want) << "row " << r << " wrote " << values[r];
  }
}

TEST(CsvTest, ExplicitSchemaValidatesHeader) {
  Schema schema({{"a", ValueType::kInt64}});
  EXPECT_TRUE(ReadCsvTable("a\n1\n", schema).ok());
  EXPECT_FALSE(ReadCsvTable("b\n1\n", schema).ok());
  EXPECT_FALSE(ReadCsvTable("a,b\n1,2\n", schema).ok());
  EXPECT_FALSE(ReadCsvTable("a\nnot_an_int\n", schema).ok());
  // A double column takes an underflowing literal as its nearest double and
  // rejects one that overflows.
  const Schema doubles({{"d", ValueType::kDouble}});
  EXPECT_TRUE(ReadCsvTable("d\n1e-320\n", doubles).ok());
  EXPECT_FALSE(ReadCsvTable("d\n1e999\n", doubles).ok());
}

TEST(CsvTest, MalformedInputsRejected) {
  EXPECT_FALSE(ReadCsvTable("").ok());
  EXPECT_FALSE(ReadCsvTable("h1,h2\n").ok());           // no data rows
  EXPECT_FALSE(ReadCsvTable("a,b\n1\n").ok());          // ragged
  EXPECT_FALSE(ReadCsvTable("a\n\"open\n").ok());       // unterminated quote
  EXPECT_FALSE(ReadCsvTable("a\nx\"y\n").ok());         // quote mid-field
}

TEST(CsvTest, DuplicateHeaderNameRejected) {
  const Result<Table> t = ReadCsvTable("a,a\n1,2\n");
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(t.status().message().find("'a'"), std::string::npos)
      << t.status().ToString();
}

TEST(CsvTest, CrLfAndBlankLinesTolerated) {
  Table t = *ReadCsvTable("a\r\n1\r\n\r\n2\r\n");
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(CsvTest, CrLfParsesIdenticallyToLf) {
  const Table lf = *ReadCsvTable("a,b\n1,x\n2,y\n");
  const Table crlf = *ReadCsvTable("a,b\r\n1,x\r\n2,y\r\n");
  ASSERT_EQ(crlf.num_rows(), lf.num_rows());
  EXPECT_EQ(crlf.Int64Column(0), lf.Int64Column(0));
  EXPECT_EQ(crlf.StringColumn(1), lf.StringColumn(1));
  // CRLF without a trailing line break on the last row.
  EXPECT_EQ(ReadCsvTable("a,b\r\n1,x\r\n2,y")->num_rows(), 2u);
}

TEST(CsvTest, BareCarriageReturnRejectedInsteadOfDeleted) {
  // `x\ry` used to parse as `xy` — the stray CR was silently dropped from
  // the data. Outside a CRLF line ending (or a quoted field, where it is
  // data) a CR is malformed.
  EXPECT_FALSE(ReadCsvTable("a,b\n1,x\ry\n").ok());
  EXPECT_FALSE(ReadCsvTable("a\r1\n").ok());    // classic-Mac line ending
  EXPECT_FALSE(ReadCsvTable("a\n1\r").ok());    // CR at end of input
}

TEST(CsvTest, QuotedFieldPreservesEmbeddedNewlines) {
  const Table t = *ReadCsvTable("a,b\n\"line1\nline2\",\"tail\r\n\"\n1,2\n");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.StringColumn(0)[0], "line1\nline2");
  EXPECT_EQ(t.StringColumn(1)[0], "tail\r\n");
}

TEST(CsvTest, EmptyTrailingFieldIsAField) {
  // `1,` is two fields, the second empty — with and without the final
  // newline, and under an explicit string schema.
  const Table inferred = *ReadCsvTable("a,b\n1,\n2,x\n");
  ASSERT_EQ(inferred.num_rows(), 2u);
  EXPECT_EQ(inferred.StringColumn(1)[0], "");
  EXPECT_EQ(inferred.StringColumn(1)[1], "x");

  const Table no_final_newline = *ReadCsvTable("a,b\nx,");
  ASSERT_EQ(no_final_newline.num_rows(), 1u);
  EXPECT_EQ(no_final_newline.StringColumn(1)[0], "");

  // An empty field is not parseable as int64: the typed path must say so
  // rather than default-fill.
  Schema schema({{"a", ValueType::kInt64}, {"b", ValueType::kInt64}});
  EXPECT_FALSE(ReadCsvTable("a,b\n1,\n", schema).ok());
}

TEST(CsvTest, OverAndUnderLongRowsRejectedOnBothPaths) {
  // Inference path.
  EXPECT_FALSE(ReadCsvTable("a,b\n1,2,3\n").ok());  // over-long
  EXPECT_FALSE(ReadCsvTable("a,b\n1\n").ok());      // under-long
  // Explicit-schema path.
  Schema schema({{"a", ValueType::kInt64}, {"b", ValueType::kInt64}});
  EXPECT_FALSE(ReadCsvTable("a,b\n1,2,3\n", schema).ok());
  EXPECT_FALSE(ReadCsvTable("a,b\n1\n", schema).ok());
  // A well-formed row before the ragged one does not mask the error.
  EXPECT_FALSE(ReadCsvTable("a,b\n1,2\n3\n", schema).ok());
}

TEST(CsvTest, GarbageAfterClosingQuoteRejected) {
  // `"x"y` used to silently concatenate to `xy`; it is malformed CSV.
  EXPECT_FALSE(ReadCsvTable("a\n\"x\"y\n").ok());
  EXPECT_FALSE(ReadCsvTable("a\n\"\"y\n").ok());
  // Re-opening a closed quoted field is equally malformed.
  EXPECT_FALSE(ReadCsvTable("a\n\"x\"\"\n").ok());
  // The well-formed neighbours still parse: an escaped quote inside a
  // quoted field, and a quoted field ending cleanly at a separator.
  EXPECT_EQ((*ReadCsvTable("a\n\"x\"\"y\"\n")).StringColumn(0)[0], "x\"y");
  EXPECT_EQ((*ReadCsvTable("a,b\n\"x\",y\n")).StringColumn(0)[0], "x");
}

TEST(CsvTest, OutOfRangeIntegerInfersAsDouble) {
  // A digit run beyond int64 is a double column, not a clamped INT64_MAX /
  // INT64_MIN.
  const Table big = *ReadCsvTable("a\n99999999999999999999\n");
  ASSERT_EQ(big.schema().field(0).type, ValueType::kDouble);
  EXPECT_DOUBLE_EQ(big.DoubleColumn(0)[0], 1e20);
  const Table small = *ReadCsvTable("a\n-99999999999999999999\n1\n");
  ASSERT_EQ(small.schema().field(0).type, ValueType::kDouble);
  EXPECT_DOUBLE_EQ(small.DoubleColumn(0)[0], -1e20);
}

TEST(CsvTest, OutOfRangeIntegerRejectedByInt64Schema) {
  // The value is rejected, not clamped.
  const Schema schema({{"a", ValueType::kInt64}});
  const Result<Table> over = ReadCsvTable("a\n-99999999999999999999\n", schema);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(ReadCsvTable("a\n9223372036854775808\n", schema).ok());
  EXPECT_FALSE(ReadCsvTable("a\n-9223372036854775809\n", schema).ok());
}

TEST(CsvTest, Int64ExtremesRoundTripExactly) {
  const std::string csv =
      "a\n-9223372036854775808\n9223372036854775807\n";
  const Schema schema({{"a", ValueType::kInt64}});
  for (const Table& t : {*ReadCsvTable(csv), *ReadCsvTable(csv, schema)}) {
    ASSERT_EQ(t.schema().field(0).type, ValueType::kInt64);
    EXPECT_EQ(t.Int64Column(0)[0], std::numeric_limits<int64_t>::min());
    EXPECT_EQ(t.Int64Column(0)[1], std::numeric_limits<int64_t>::max());
    EXPECT_EQ(WriteCsvTable(t), csv);
  }
}

TEST(CsvTest, FileRoundTrip) {
  const std::string path = "/tmp/osdp_csv_test.csv";
  ASSERT_TRUE(WriteStringToFile(path, "a\n42\n").ok());
  std::ifstream in(path, std::ios::binary);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  Table t = *ReadCsvTable(text);
  EXPECT_EQ(t.Int64Column(0)[0], 42);
  std::remove(path.c_str());
  EXPECT_FALSE(WriteStringToFile("/nonexistent/dir/osdp.csv", "x").ok());
}

}  // namespace
}  // namespace osdp
