// Tests for src/data: Value, Schema, Table, Predicate — including the
// randomized property suite pinning SelectRows(RowMask) to a cell-by-cell
// gather of the mask's indices, and the FromColumns / AppendRows round trip
// across ragged and word-boundary row counts.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/check.h"
#include "src/common/random.h"

#include "src/data/predicate.h"
#include "src/data/row_mask.h"
#include "src/data/schema.h"
#include "src/data/table.h"
#include "src/data/value.h"
#include "tests/reference_predicate.h"
#include "tests/table_rows.h"

namespace osdp {
namespace {

Schema TestSchema() {
  return Schema({{"age", ValueType::kInt64},
                 {"income", ValueType::kDouble},
                 {"race", ValueType::kString},
                 {"opt_in", ValueType::kInt64}});
}

Table TestTable() {
  return TableFromRows(
      TestSchema(),
      {{Value(15), Value(0.0), Value("White"), Value(1)},
       {Value(34), Value(52000.0), Value("Asian"), Value(1)},
       {Value(52), Value(78000.0), Value("NativeAmerican"), Value(0)},
       {Value(28), Value(41000.0), Value("Black"), Value(0)}});
}

// ----------------------------------------------------------------- Value ---

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value(7).is_int64());
  EXPECT_TRUE(Value(int64_t{7}).is_int64());
  EXPECT_EQ(Value(3.5).type(), ValueType::kDouble);
  EXPECT_TRUE(Value("abc").is_string());
  EXPECT_EQ(Value(7).AsInt64(), 7);
  EXPECT_DOUBLE_EQ(Value(3.5).AsDouble(), 3.5);
  EXPECT_EQ(Value("abc").AsString(), "abc");
}

TEST(ValueTest, AsNumericWidensInt) {
  EXPECT_DOUBLE_EQ(Value(7).AsNumeric(), 7.0);
  EXPECT_DOUBLE_EQ(Value(2.25).AsNumeric(), 2.25);
}

TEST(ValueTest, EqualityAndToString) {
  EXPECT_EQ(Value(7), Value(7));
  EXPECT_NE(Value(7), Value(7.0));  // different dynamic types
  EXPECT_EQ(Value("x").ToString(), "\"x\"");
  EXPECT_EQ(Value(42).ToString(), "42");
}

// ---------------------------------------------------------------- Schema ---

TEST(SchemaTest, FieldLookup) {
  Schema s = TestSchema();
  EXPECT_EQ(s.num_fields(), 4u);
  EXPECT_EQ(*s.FieldIndex("race"), 2u);
  EXPECT_EQ(s.FieldIndex("missing").status().code(), StatusCode::kNotFound);
}

TEST(SchemaTest, ToStringListsFields) {
  EXPECT_EQ(Schema({{"a", ValueType::kInt64}}).ToString(), "(a:int64)");
}

// ----------------------------------------------------------------- Table ---

TEST(TableTest, BuildAndRead) {
  Table t = TestTable();
  EXPECT_EQ(t.num_rows(), 4u);
  EXPECT_EQ(t.num_columns(), 4u);
  EXPECT_EQ(t.StringColumn(2)[2], "NativeAmerican");
  EXPECT_EQ(t.Int64Column(0)[0], 15);
}

TEST(TableTest, FromColumnsValidatesArity) {
  std::vector<Table::ColumnData> columns;
  columns.emplace_back(std::vector<int64_t>{1});
  EXPECT_EQ(Table::FromColumns(TestSchema(), std::move(columns))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(TableTest, FromColumnsValidatesTypesAndLengths) {
  const Schema schema({{"a", ValueType::kInt64}, {"b", ValueType::kDouble}});
  std::vector<Table::ColumnData> wrong_type;
  wrong_type.emplace_back(std::vector<std::string>{"nope"});
  wrong_type.emplace_back(std::vector<double>{0.0});
  EXPECT_EQ(Table::FromColumns(schema, std::move(wrong_type)).status().code(),
            StatusCode::kInvalidArgument);
  std::vector<Table::ColumnData> ragged;
  ragged.emplace_back(std::vector<int64_t>{1, 2});
  ragged.emplace_back(std::vector<double>{0.0});
  EXPECT_EQ(Table::FromColumns(schema, std::move(ragged)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TableTest, TypedColumnViews) {
  Table t = TestTable();
  EXPECT_EQ(t.Int64Column(0).size(), 4u);
  EXPECT_EQ(t.Int64Column(0)[1], 34);
  EXPECT_DOUBLE_EQ(t.DoubleColumn(1)[2], 78000.0);
  EXPECT_EQ(t.StringColumn(2)[3], "Black");
}

TEST(TableTest, ColumnByNameChecksType) {
  Table t = TestTable();
  ASSERT_TRUE(t.Int64ColumnByName("age").ok());
  EXPECT_EQ((**t.Int64ColumnByName("age"))[0], 15);
  EXPECT_FALSE(t.Int64ColumnByName("income").ok());
  EXPECT_FALSE(t.Int64ColumnByName("missing").ok());
}

TEST(TableTest, SelectRowsFromMaskGathersInOrder) {
  Table t = TestTable();
  RowMask mask(t.num_rows());
  mask.Set(0);
  mask.Set(3);
  Table sel = t.SelectRows(mask);
  EXPECT_EQ(sel.num_rows(), 2u);
  EXPECT_EQ(sel.Int64Column(0)[0], 15);
  EXPECT_EQ(sel.Int64Column(0)[1], 28);
  EXPECT_EQ(RowAt(sel, 1), RowAt(t, 3));
}

// Mixed-type table of `rows` rows with deterministic, seed-dependent cells.
Table DeterministicTable(size_t rows, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<std::string> strings;
  ints.reserve(rows);
  doubles.reserve(rows);
  strings.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    ints.push_back(static_cast<int64_t>(rng.NextBounded(1000)));
    doubles.push_back(static_cast<double>(rng.NextBounded(1u << 20)) * 0.25);
    strings.push_back("s" + std::to_string(rng.NextBounded(17)));
  }
  std::vector<Table::ColumnData> columns;
  columns.emplace_back(std::move(ints));
  columns.emplace_back(std::move(doubles));
  columns.emplace_back(std::move(strings));
  return *Table::FromColumns(Schema({{"i", ValueType::kInt64},
                                     {"d", ValueType::kDouble},
                                     {"s", ValueType::kString}}),
                             std::move(columns));
}

void ExpectTablesEqual(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_columns(), b.num_columns());
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      ASSERT_EQ(CellAt(a, r, c), CellAt(b, r, c))
          << "cell (" << r << ", " << c << ")";
    }
  }
}

// The rows of `t` at `indices`, in order, gathered one cell at a time.
Table GatherRows(const Table& t, const std::vector<size_t>& indices) {
  std::vector<Row> rows;
  for (size_t r : indices) rows.push_back(RowAt(t, r));
  return TableFromRows(t.schema(), rows);
}

// The mask of rows [begin, end) of a `rows`-row table.
RowMask RangeMask(size_t rows, size_t begin, size_t end) {
  RowMask mask(rows);
  for (size_t i = begin; i < end; ++i) mask.Set(i);
  return mask;
}

// Row counts straddling every word-boundary case the packed mask cares
// about: empty, sub-word, exactly one word, word ± 1, and multi-word ragged.
const size_t kRaggedSizes[] = {0, 1, 63, 64, 65, 127, 128, 129, 1000, 1025};

TEST(TablePropertyTest, SelectRowsMaskMatchesIndexGatherAcrossSizes) {
  Rng rng(0x57A7);
  for (size_t rows : kRaggedSizes) {
    const Table t = DeterministicTable(rows, /*seed=*/rows + 1);
    // All-empty, random, and all-full masks: the boundary densities plus a
    // representative middle.
    for (const double density : {0.0, 0.5, 1.0}) {
      RowMask mask(rows);
      for (size_t i = 0; i < rows; ++i) {
        if (density == 1.0 || (density > 0.0 && rng.NextDouble() < density)) {
          mask.Set(i);
        }
      }
      const Table via_mask = t.SelectRows(mask);
      const Table via_indices = GatherRows(t, mask.ToIndices());
      ASSERT_EQ(via_mask.num_rows(), mask.Count());
      ExpectTablesEqual(via_mask, via_indices);
    }
  }
}

TEST(TablePropertyTest, FromColumnsRoundTripsAcrossSizes) {
  for (size_t rows : kRaggedSizes) {
    Rng rng(rows + 7);
    std::vector<int64_t> ints;
    std::vector<std::string> strings;
    for (size_t i = 0; i < rows; ++i) {
      ints.push_back(static_cast<int64_t>(rng.NextBounded(1u << 30)) - 500);
      strings.push_back(std::string(i % 5, 'x') + std::to_string(i));
    }
    const std::vector<int64_t> ints_ref = ints;
    const std::vector<std::string> strings_ref = strings;
    std::vector<Table::ColumnData> columns;
    columns.emplace_back(std::move(ints));
    columns.emplace_back(std::move(strings));
    const Table t = *Table::FromColumns(
        Schema({{"i", ValueType::kInt64}, {"s", ValueType::kString}}),
        std::move(columns));
    ASSERT_EQ(t.num_rows(), rows);
    EXPECT_EQ(ColumnCells(t.Int64Column(0)), ints_ref);
    EXPECT_EQ(ColumnCells(t.StringColumn(1)), strings_ref);
  }
}

TEST(TablePropertyTest, AppendRowsMatchesSingleShotConstruction) {
  // Concatenating a split table through AppendRows reproduces the
  // single-shot FromColumns table exactly, wherever the cut lands.
  for (size_t rows : kRaggedSizes) {
    const Table whole = DeterministicTable(rows, /*seed=*/rows + 3);
    for (const size_t cut : {size_t{0}, rows / 3, rows}) {
      Table head = whole.SelectRows(RangeMask(rows, 0, cut));
      const Table tail = whole.SelectRows(RangeMask(rows, cut, rows));
      ASSERT_TRUE(head.AppendRows(tail).ok());
      ExpectTablesEqual(head, whole);
    }
  }
}

TEST(TableTest, AppendRowsToItselfDoublesTheTable) {
  Table t = TestTable();
  ASSERT_TRUE(t.AppendRows(t).ok());
  ASSERT_EQ(t.num_rows(), 8u);
  for (size_t r = 0; r < 4; ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      EXPECT_EQ(CellAt(t, r, c), CellAt(t, 4 + r, c));
    }
  }
}

TEST(TableTest, AppendRowsRejectsSchemaMismatch) {
  Table t = TestTable();
  const Table other =
      TableFromRows(Schema({{"age", ValueType::kInt64}}), {{Value(1)}});
  EXPECT_EQ(t.AppendRows(other).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(t.num_rows(), 4u);
}

// ------------------------------------------------------------- Predicate ---

TEST(PredicateTest, ComparisonsOnInt) {
  Table t = TestTable();
  auto minors = Predicate::Le("age", Value(17));
  EXPECT_TRUE(ReferenceEval(minors, t, 0));
  EXPECT_FALSE(ReferenceEval(minors, t, 1));
}

TEST(PredicateTest, ComparisonsOnDouble) {
  Table t = TestTable();
  auto rich = Predicate::Gt("income", Value(50000.0));
  EXPECT_FALSE(ReferenceEval(rich, t, 0));
  EXPECT_TRUE(ReferenceEval(rich, t, 1));
  EXPECT_TRUE(ReferenceEval(rich, t, 2));
}

TEST(PredicateTest, IntColumnComparesAgainstDoubleLiteral) {
  Table t = TestTable();
  auto p = Predicate::Ge("age", Value(28.0));
  EXPECT_TRUE(ReferenceEval(p, t, 1));
  EXPECT_FALSE(ReferenceEval(p, t, 0));
}

TEST(PredicateTest, StringEquality) {
  Table t = TestTable();
  auto p = Predicate::Eq("race", Value("NativeAmerican"));
  EXPECT_TRUE(ReferenceEval(p, t, 2));
  EXPECT_FALSE(ReferenceEval(p, t, 1));
}

TEST(PredicateTest, InOperator) {
  Table t = TestTable();
  auto p = Predicate::In("race", {Value("Asian"), Value("Black")});
  EXPECT_FALSE(ReferenceEval(p, t, 0));
  EXPECT_TRUE(ReferenceEval(p, t, 1));
  EXPECT_TRUE(ReferenceEval(p, t, 3));
}

TEST(PredicateTest, PaperPolicyExample) {
  // λr. if(r.Race = NativeAmerican ∨ r.Optin = False): 0 — i.e. sensitive.
  Table t = TestTable();
  auto sensitive = Predicate::Or(Predicate::Eq("race", Value("NativeAmerican")),
                                 Predicate::Eq("opt_in", Value(0)));
  EXPECT_FALSE(ReferenceEval(sensitive, t, 0));
  EXPECT_FALSE(ReferenceEval(sensitive, t, 1));
  EXPECT_TRUE(ReferenceEval(sensitive, t, 2));   // native american
  EXPECT_TRUE(ReferenceEval(sensitive, t, 3));   // opted out
}

TEST(PredicateTest, LogicalOperators) {
  Table t = TestTable();
  auto p = Predicate::And(Predicate::Gt("age", Value(20)),
                          Predicate::Not(Predicate::Eq("opt_in", Value(0))));
  EXPECT_FALSE(ReferenceEval(p, t, 0));  // minor
  EXPECT_TRUE(ReferenceEval(p, t, 1));
  EXPECT_FALSE(ReferenceEval(p, t, 3));  // opted out
}

TEST(PredicateTest, ConstantsAndToString) {
  Table t = TestTable();
  EXPECT_TRUE(ReferenceEval(Predicate::True(), t, 0));
  EXPECT_FALSE(ReferenceEval(Predicate::False(), t, 0));
  const std::string s =
      Predicate::Or(Predicate::Le("age", Value(17)), Predicate::False())
          .ToString();
  EXPECT_NE(s.find("age <= 17"), std::string::npos);
}

TEST(PredicateTest, EvalAgainstMaterializedRow) {
  Schema schema = TestSchema();
  Row row = {Value(16), Value(0.0), Value("White"), Value(1)};
  EXPECT_TRUE(ReferenceEval(Predicate::Le("age", Value(17)), schema, row));
  EXPECT_FALSE(ReferenceEval(Predicate::Gt("age", Value(17)), schema, row));
}

}  // namespace
}  // namespace osdp
