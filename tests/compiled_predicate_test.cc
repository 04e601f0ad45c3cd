// Property tests for the compiled predicate pipeline: CompiledPredicate +
// RowMask must agree bit-for-bit with the row-at-a-time reference evaluator
// (ReferenceEval, tests/reference_predicate.h) over randomized schemas,
// tables, and predicate trees covering And/Or/Not/In and every comparison on
// all three column types.

#include "src/data/compiled_predicate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "src/common/check.h"
#include "src/common/random.h"
#include "src/data/predicate.h"
#include "src/data/row_mask.h"
#include "src/data/scan_kernels.h"
#include "src/data/schema.h"
#include "src/data/table.h"
#include "src/hist/histogram_query.h"
#include "src/policy/policy.h"
#include "tests/reference_predicate.h"
#include "tests/table_rows.h"

namespace osdp {
namespace {

// ------------------------------------------------------------- generators ---

ValueType RandomType(Rng& rng) {
  return static_cast<ValueType>(rng.NextBounded(3));
}

Schema RandomSchema(Rng& rng) {
  const size_t n = 2 + rng.NextBounded(5);
  std::vector<Field> fields;
  for (size_t i = 0; i < n; ++i) {
    fields.push_back({"c" + std::to_string(i), RandomType(rng)});
  }
  return Schema(std::move(fields));
}

constexpr int64_t kTwo53 = int64_t{1} << 53;

// Small pools so random predicates actually hit matching rows; the int pool
// includes values around and past 2^53 and the int64 extremes to pin down
// the compare-as-double semantics (2^53 + 1 rounds to 2^53 as a double).
const std::vector<int64_t>& IntPool() {
  static const std::vector<int64_t> kPool = {
      -4, -1, 0, 1, 2, 3, 4, 1000000007,
      kTwo53 - 1, kTwo53, kTwo53 + 1, -(kTwo53 + 3),
      std::numeric_limits<int64_t>::min(), std::numeric_limits<int64_t>::max()};
  return kPool;
}

// Includes the literals an exact integer rewrite is most likely to get
// wrong: a signed zero, NaN, both infinities, 2^53, and 9.3e18 (past
// INT64_MAX, but inside int64's range once INT64_MAX rounds up to 2^63).
const std::vector<double>& DoublePool() {
  static const std::vector<double> kPool = {
      -2.5, -1.0, 0.0, 0.5, 1.0, 2.25, 1e9, -3.75, -0.0,
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      static_cast<double>(kTwo53), 9.3e18};
  return kPool;
}

const std::vector<std::string>& StringPool() {
  static const std::vector<std::string> kPool = {"", "a", "ab", "b",
                                                 "ba", "c",  "zzz"};
  return kPool;
}

Value RandomValueOf(ValueType type, Rng& rng) {
  switch (type) {
    case ValueType::kInt64:
      return Value(IntPool()[rng.NextBounded(IntPool().size())]);
    case ValueType::kDouble:
      return Value(DoublePool()[rng.NextBounded(DoublePool().size())]);
    case ValueType::kString:
      return Value(StringPool()[rng.NextBounded(StringPool().size())]);
  }
  return Value();
}

Table RandomTable(const Schema& schema, Rng& rng) {
  const size_t num_rows = rng.NextBounded(151);  // includes the empty table
  std::vector<Row> rows(num_rows, Row(schema.num_fields()));
  for (Row& row : rows) {
    for (size_t c = 0; c < schema.num_fields(); ++c) {
      row[c] = RandomValueOf(schema.field(c).type, rng);
    }
  }
  return TableFromRows(schema, rows);
}

// Numeric columns may compare against int or double literals (they mix
// freely); string columns only against strings.
Value RandomLiteralFor(ValueType col_type, Rng& rng) {
  if (col_type == ValueType::kString) {
    return RandomValueOf(ValueType::kString, rng);
  }
  return RandomValueOf(
      rng.NextBernoulli(0.5) ? ValueType::kInt64 : ValueType::kDouble, rng);
}

Predicate RandomLeaf(const Schema& schema, Rng& rng) {
  const size_t col = rng.NextBounded(schema.num_fields());
  const std::string& name = schema.field(col).name;
  const ValueType type = schema.field(col).type;
  switch (rng.NextBounded(8)) {
    case 0: return Predicate::Eq(name, RandomLiteralFor(type, rng));
    case 1: return Predicate::Ne(name, RandomLiteralFor(type, rng));
    case 2: return Predicate::Lt(name, RandomLiteralFor(type, rng));
    case 3: return Predicate::Le(name, RandomLiteralFor(type, rng));
    case 4: return Predicate::Gt(name, RandomLiteralFor(type, rng));
    case 5: return Predicate::Ge(name, RandomLiteralFor(type, rng));
    case 6: {
      std::vector<Value> lits;
      const size_t n = rng.NextBounded(5);  // includes the empty IN list
      for (size_t i = 0; i < n; ++i) lits.push_back(RandomLiteralFor(type, rng));
      return Predicate::In(name, std::move(lits));
    }
    default:
      return rng.NextBernoulli(0.5) ? Predicate::True() : Predicate::False();
  }
}

Predicate RandomTree(const Schema& schema, Rng& rng, int depth) {
  if (depth <= 0 || rng.NextBernoulli(0.35)) return RandomLeaf(schema, rng);
  switch (rng.NextBounded(3)) {
    case 0:
      return Predicate::And(RandomTree(schema, rng, depth - 1),
                            RandomTree(schema, rng, depth - 1));
    case 1:
      return Predicate::Or(RandomTree(schema, rng, depth - 1),
                           RandomTree(schema, rng, depth - 1));
    default:
      return Predicate::Not(RandomTree(schema, rng, depth - 1));
  }
}

// ---------------------------------------------------------------- property ---

TEST(CompiledPredicateProperty, BitIdenticalWithReferenceEval) {
  Rng rng(0x0511);
  for (int trial = 0; trial < 300; ++trial) {
    const Schema schema = RandomSchema(rng);
    const Table table = RandomTable(schema, rng);
    const Predicate pred = RandomTree(schema, rng, 4);

    Result<CompiledPredicate> compiled =
        CompiledPredicate::Compile(pred, schema);
    ASSERT_TRUE(compiled.ok())
        << "trial " << trial << ": " << pred.ToString() << " — "
        << compiled.status().ToString();

    const RowMask mask = compiled->EvalMask(table);
    ASSERT_EQ(mask.size(), table.num_rows());
    size_t expected_count = 0;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      const bool expected = ReferenceEval(pred, table, r);
      expected_count += expected ? 1 : 0;
      ASSERT_EQ(mask.Test(r), expected)
          << "trial " << trial << " row " << r << ": " << pred.ToString();
      // The materialized-Row evaluator must agree too.
      ASSERT_EQ(ReferenceEval(pred, schema, RowAt(table, r)), expected);
    }
    ASSERT_EQ(mask.Count(), expected_count) << pred.ToString();
  }
}

TEST(CompiledPredicateProperty, PolicyMaskMatchesRowClassification) {
  Rng rng(0x9A7);
  for (int trial = 0; trial < 50; ++trial) {
    const Schema schema = RandomSchema(rng);
    const Table table = RandomTable(schema, rng);
    const Policy policy =
        Policy::SensitiveWhen(RandomTree(schema, rng, 3), "p");

    const RowMask sensitive = policy.SensitiveMask(table);
    const RowMask ns = policy.NonSensitiveRowMask(table);
    size_t ns_count = 0;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      ASSERT_EQ(sensitive.Test(r),
                ReferenceEval(policy.sensitive_predicate(), table, r));
      ASSERT_EQ(ns.Test(r), !sensitive.Test(r));
      ns_count += ns.Test(r) ? 1 : 0;
    }
    if (table.num_rows() > 0) {
      EXPECT_DOUBLE_EQ(policy.NonSensitiveFraction(table),
                       static_cast<double>(ns_count) / table.num_rows());
    }
  }
}

TEST(CompiledPredicateProperty, MaskedHistogramMatchesReferenceLoop) {
  Rng rng(0xBEEF);
  for (int trial = 0; trial < 50; ++trial) {
    Schema schema({{"v", ValueType::kInt64}, {"w", ValueType::kDouble}});
    Table table = RandomTable(schema, rng);
    HistogramQuery query{
        "v", Domain1D::Categorical(64),
        std::optional<Predicate>(RandomTree(schema, rng, 3))};
    // Categorical binning aborts on out-of-range codes; rebuild the value
    // column inside the domain.
    std::vector<Row> rows;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      rows.push_back({Value(static_cast<int64_t>(rng.NextBounded(64))),
                      CellAt(table, r, 1)});
    }
    const Table bounded = TableFromRows(schema, rows);

    std::vector<bool> mask(bounded.num_rows());
    for (size_t r = 0; r < bounded.num_rows(); ++r) {
      mask[r] = rng.NextBernoulli(0.5);
    }

    Result<Histogram> fast =
        ComputeHistogramMasked(bounded, query, RowMask::FromBools(mask));
    ASSERT_TRUE(fast.ok());

    Histogram expected(64);
    for (size_t r = 0; r < bounded.num_rows(); ++r) {
      if (!mask[r]) continue;
      if (query.where && !ReferenceEval(*query.where, bounded, r)) continue;
      expected.Add(static_cast<size_t>(bounded.Int64Column(0)[r]));
    }
    ASSERT_EQ(fast->size(), expected.size());
    for (size_t b = 0; b < expected.size(); ++b) {
      ASSERT_DOUBLE_EQ((*fast)[b], expected[b]) << "bin " << b;
    }
  }
}

// ------------------------------------------------------------ compile errs ---

TEST(CompiledPredicateTest, UnknownColumnIsNotFound) {
  Schema schema({{"age", ValueType::kInt64}});
  auto r = CompiledPredicate::Compile(Predicate::Eq("missing", Value(1)), schema);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(CompiledPredicateTest, TypeMixIsInvalidArgument) {
  Schema schema({{"age", ValueType::kInt64}, {"race", ValueType::kString}});
  EXPECT_EQ(CompiledPredicate::Compile(Predicate::Eq("age", Value("x")), schema)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CompiledPredicate::Compile(Predicate::Lt("race", Value(3)), schema)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CompiledPredicate::Compile(
                Predicate::In("race", {Value("a"), Value(1)}), schema)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(CompiledPredicateTest, SchemaMismatchIsRejectedAtEval) {
  Schema schema({{"age", ValueType::kInt64}});
  auto compiled =
      *CompiledPredicate::Compile(Predicate::Ge("age", Value(18)), schema);
  Table other(Schema({{"height", ValueType::kDouble}}));
  EXPECT_DEATH(compiled.EvalMask(other), "schema");
}

TEST(CompiledPredicateTest, EmptyInListIsConstantFalse) {
  Schema schema({{"age", ValueType::kInt64}});
  const Table t = TableFromRows(schema, {{Value(5)}});
  auto compiled = *CompiledPredicate::Compile(Predicate::In("age", {}), schema);
  EXPECT_EQ(compiled.EvalMask(t).Count(), 0u);
}

// ----------------------------------------------------------- literal edges ---

// Int64 cells next to every place where double(v) stops being exact or
// saturates: ±2^53 ± 2, ±2^63 (the int64 ends), and small values.
std::vector<int64_t> EdgeRows() {
  std::vector<int64_t> rows;
  for (int64_t d = -2; d <= 2; ++d) {
    rows.push_back(kTwo53 + d);
    rows.push_back(-kTwo53 + d);
    rows.push_back(d);
  }
  for (int64_t d = 0; d <= 2; ++d) {
    rows.push_back(std::numeric_limits<int64_t>::min() + d);
    rows.push_back(std::numeric_limits<int64_t>::max() - d);
  }
  rows.push_back(std::numeric_limits<int64_t>::max() - 1024);
  rows.push_back(std::numeric_limits<int64_t>::max() - 512);
  return rows;
}

// Every literal kind an int64 column can meet: the edge rows as int
// literals, plus doubles between, at and past the representable ends.
std::vector<Value> EdgeLiterals() {
  std::vector<Value> lits;
  for (int64_t v : EdgeRows()) lits.emplace_back(v);
  const double inf = std::numeric_limits<double>::infinity();
  const double two63 = 9223372036854775808.0;
  for (double d : {0.0, -0.0, 0.5, -0.5, 1.5, std::nan(""), inf, -inf,
                   static_cast<double>(kTwo53), static_cast<double>(kTwo53) + 2,
                   static_cast<double>(kTwo53) - 0.5, 9.3e18, -9.3e18, two63,
                   -two63, std::nextafter(two63, 0.0),
                   std::nextafter(-two63, 0.0), 1e300, -1e300}) {
    lits.emplace_back(d);
  }
  return lits;
}

Predicate Compare(PredicateOp op, const std::string& col, const Value& lit) {
  switch (op) {
    case PredicateOp::kEq: return Predicate::Eq(col, lit);
    case PredicateOp::kNe: return Predicate::Ne(col, lit);
    case PredicateOp::kLt: return Predicate::Lt(col, lit);
    case PredicateOp::kLe: return Predicate::Le(col, lit);
    case PredicateOp::kGt: return Predicate::Gt(col, lit);
    default: return Predicate::Ge(col, lit);
  }
}

const PredicateOp kCmpOps[] = {PredicateOp::kEq, PredicateOp::kNe,
                               PredicateOp::kLt, PredicateOp::kLe,
                               PredicateOp::kGt, PredicateOp::kGe};

// Asserts the compiled mask of `pred` equals ReferenceEval on every row.
void ExpectMatchesReference(const Predicate& pred, const Table& table) {
  const RowMask mask =
      CompiledPredicate::Compile(pred, table.schema())->EvalMask(table);
  for (size_t r = 0; r < table.num_rows(); ++r) {
    ASSERT_EQ(mask.Test(r), ReferenceEval(pred, table, r))
        << pred.ToString() << " row " << CellAt(table, r, 0).ToString();
  }
}

TEST(CompiledPredicateTest, IntColumnLiteralEdgesMatchDoubleCompare) {
  // An int64 comparison compiles to an exact integer interval; it must give
  // the double compare's answer for every literal, including where rounding
  // merges neighbours (at L = 2^53, row 2^53 + 1 equals L as a double).
  const Schema schema({{"v", ValueType::kInt64}});
  std::vector<Row> rows;
  for (int64_t v : EdgeRows()) rows.push_back({Value(v)});
  const Table table = TableFromRows(schema, rows);
  const std::vector<Value> lits = EdgeLiterals();
  for (const Value& lit : lits) {
    for (PredicateOp op : kCmpOps) {
      ExpectMatchesReference(Compare(op, "v", lit), table);
    }
  }
  // Two ranges on one column intersect into a single interval.
  Rng rng(0x2E53);
  for (const Value& a : lits) {
    for (const Value& b : lits) {
      const PredicateOp op_a = kCmpOps[rng.NextBounded(6)];
      const PredicateOp op_b = kCmpOps[rng.NextBounded(6)];
      ExpectMatchesReference(
          Predicate::And(Compare(op_a, "v", a), Compare(op_b, "v", b)), table);
    }
  }
}

TEST(CompiledPredicateTest, DoubleColumnLiteralEdgesMatchDoubleCompare) {
  const Schema schema({{"d", ValueType::kDouble}});
  const std::vector<Value> lits = EdgeLiterals();
  std::vector<Row> rows;
  for (const Value& lit : lits) rows.push_back({Value(lit.AsNumeric())});
  const Table table = TableFromRows(schema, rows);
  for (const Value& lit : lits) {
    for (PredicateOp op : kCmpOps) {
      ExpectMatchesReference(Compare(op, "d", lit), table);
    }
  }
}

// ------------------------------------------------------------ scan kernels ---

// The mask of unsigned width w: 2^w - 1.
uint64_t WidthMask(LegCells cells) {
  switch (cells) {
    case LegCells::kU8: return 0xFF;
    case LegCells::kU16: return 0xFFFF;
    case LegCells::kU32: return 0xFFFFFFFF;
    default: return ~uint64_t{0};
  }
}

// Cell i of an unsigned leg's cells, widened.
uint64_t UnsignedCell(LegCells cells, const void* data, size_t i) {
  switch (cells) {
    case LegCells::kU8: return static_cast<const uint8_t*>(data)[i];
    case LegCells::kU16: return static_cast<const uint16_t*>(data)[i];
    case LegCells::kU32: return static_cast<const uint32_t*>(data)[i];
    default: return static_cast<const uint64_t*>(data)[i];
  }
}

// Leg `leg` on cell i, by definition: membership in the wrapped interval
// [lo, lo + span] of the 2^w circle for w-bit cells, the IEEE compare for
// doubles.
bool LegOracle(const ScanLeg& leg, const void* cells, size_t i) {
  if (leg.cells != LegCells::kDouble) {
    const uint64_t mask = WidthMask(leg.cells);
    const uint64_t u = UnsignedCell(leg.cells, cells, i);
    const uint64_t hi = (leg.lo + leg.span) & mask;
    return leg.lo <= hi ? (leg.lo <= u && u <= hi) : (u >= leg.lo || u <= hi);
  }
  const double v = static_cast<const double*>(cells)[i];
  switch (leg.cmp) {
    case PredicateOp::kEq: return v == leg.lit;
    case PredicateOp::kNe: return v != leg.lit;
    case PredicateOp::kLt: return v < leg.lit;
    case PredicateOp::kLe: return v <= leg.lit;
    case PredicateOp::kGt: return v > leg.lit;
    default: return v >= leg.lit;
  }
}

// A copy of `values` in a heap block of exactly values.size() cells, so a
// body that loads a cell past its last row reads past the block, which the
// AddressSanitizer build reports.
template <typename T>
std::shared_ptr<const void> ExactCells(const std::vector<T>& values) {
  std::shared_ptr<T[]> cells(new T[values.size()]);
  std::copy(values.begin(), values.end(), cells.get());
  return cells;
}

TEST(ScanKernelsTest, EveryBodyMatchesTheRowOracle) {
  namespace k = scan_kernels_internal;
  using Body = void (*)(const ScanLeg*, const void* const*, size_t, size_t,
                        uint64_t*);
  std::vector<std::pair<const char*, Body>> bodies = {
      {"portable", k::FusedAndMaskPortable}, {"dispatch", FusedAndMask}};
  if (k::Avx2Available()) bodies.push_back({"avx2", k::FusedAndMaskAvx2});
  if (k::Avx512Available()) bodies.push_back({"avx512", k::FusedAndMaskAvx512});
  // Which bodies this host ran, so a CI log shows the SIMD coverage.
  std::string ran;
  for (const auto& body : bodies) {
    ran += std::string(ran.empty() ? "" : ",") + body.first;
  }
  RecordProperty("bodies", ran);
  RecordProperty("dispatched", k::DispatchedBodyName());
  std::printf("scan kernel bodies run: %s (dispatch picks %s)\n", ran.c_str(),
              k::DispatchedBodyName());

  // Values that sit on interval ends and wrap points, at each width: the
  // low bits of the int64 edges, masked to the width.
  const std::vector<int64_t> ints = {
      std::numeric_limits<int64_t>::min(), -1, 0, 1, 2, 40, 41, 255, 256,
      65535, 65536, std::numeric_limits<int64_t>::max()};
  const LegCells kUnsigned[] = {LegCells::kU8, LegCells::kU16, LegCells::kU32,
                                LegCells::kU64};
  const std::vector<double> doubles = DoublePool();
  Rng rng(0x5CA7);
  // Besides word edges, sizes around 8, 16 and 32 rows cross the vector
  // widths of the tail-word loops, whose epilogues differ per body. Sizes
  // near a chunk end a block's full words with tails of 63, 0 and 1 rows,
  // and 8257 crosses two 4096-row blocks of the SIMD bodies' word loops.
  for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                   size_t{15}, size_t{16}, size_t{17}, size_t{31}, size_t{32},
                   size_t{33}, size_t{63}, size_t{64}, size_t{65}, size_t{127},
                   size_t{128}, size_t{1001}, size_t{4031}, size_t{4032},
                   size_t{4033}, size_t{4095}, kChunkRows, size_t{8257}}) {
    // Leg kinds met at this size: u8, u16, u32, u64 plain, u64 wrapped,
    // double, NaN literal.
    bool seen[7] = {};
    for (int trial = 0; trial < 40; ++trial) {
      const size_t num_legs = 1 + rng.NextBounded(kMaxFusedLegs);
      std::vector<ScanLeg> legs(num_legs);
      std::vector<std::shared_ptr<const void>> owned(num_legs);
      std::vector<const void*> cells(num_legs);
      for (size_t j = 0; j < num_legs; ++j) {
        ScanLeg& leg = legs[j];
        if (rng.NextBernoulli(0.3)) {
          leg.cells = LegCells::kDouble;
          leg.cmp = kCmpOps[rng.NextBounded(6)];
          leg.lit = doubles[rng.NextBounded(doubles.size())];
          seen[std::isnan(leg.lit) ? 6 : 5] = true;
          std::vector<double> values(n);
          for (double& v : values) {
            v = doubles[rng.NextBounded(doubles.size())];
          }
          owned[j] = ExactCells(values);
          cells[j] = owned[j].get();
          continue;
        }
        leg.cells = kUnsigned[rng.NextBounded(4)];
        const uint64_t mask = WidthMask(leg.cells);
        leg.lo = static_cast<uint64_t>(ints[rng.NextBounded(ints.size())]) &
                 mask;
        const uint64_t spans[] = {0, 1, 40, mask, mask - 1, rng.Next()};
        leg.span = spans[rng.NextBounded(6)] & mask;
        const bool wraps = ((leg.lo + leg.span) & mask) < leg.lo;
        seen[leg.cells == LegCells::kU64 ? 3 + (wraps ? 1 : 0)
                                         : static_cast<size_t>(leg.cells)] =
            true;
        std::vector<uint64_t> wide(n);
        for (uint64_t& v : wide) {
          v = (rng.NextBernoulli(0.8)
                   ? static_cast<uint64_t>(ints[rng.NextBounded(ints.size())])
                   : rng.Next()) &
              mask;
        }
        switch (leg.cells) {
          case LegCells::kU8:
            owned[j] =
                ExactCells(std::vector<uint8_t>(wide.begin(), wide.end()));
            break;
          case LegCells::kU16:
            owned[j] =
                ExactCells(std::vector<uint16_t>(wide.begin(), wide.end()));
            break;
          case LegCells::kU32:
            owned[j] =
                ExactCells(std::vector<uint32_t>(wide.begin(), wide.end()));
            break;
          default:
            owned[j] = ExactCells(wide);
        }
        cells[j] = owned[j].get();
      }
      std::vector<uint64_t> expected((n + 63) / 64, 0);
      for (size_t i = 0; i < n; ++i) {
        bool all = true;
        for (size_t j = 0; j < num_legs; ++j) {
          all = all && LegOracle(legs[j], cells[j], i);
        }
        if (all) expected[i / 64] |= uint64_t{1} << (i % 64);
      }
      for (const auto& [name, body] : bodies) {
        // Pre-filled with ones, so a skipped tail bit shows.
        std::vector<uint64_t> got(expected.size(), ~uint64_t{0});
        body(legs.data(), cells.data(), num_legs, n, got.data());
        ASSERT_EQ(got, expected) << name << " n=" << n << " legs=" << num_legs;
      }
    }
    for (size_t kind = 0; kind < 7; ++kind) {
      EXPECT_TRUE(seen[kind]) << "n=" << n << " leg kind " << kind;
    }
  }
}

// Every EncodeForChunk body seals a chunk to its minimum, its range and
// offsets at the narrowest width that holds the range, offset i being cell
// i minus the minimum: at each width edge, at the int64 extremes, and for
// all-equal chunks.
TEST(ScanKernelsTest, EveryEncodeBodyMatchesTheDefinition) {
  namespace k = scan_kernels_internal;
  using Body = void (*)(const int64_t*, ForChunk*);
  std::vector<std::pair<const char*, Body>> bodies = {
      {"portable", k::EncodeForChunkPortable}, {"dispatch", EncodeForChunk}};
  if (k::Avx2Available()) bodies.push_back({"avx2", k::EncodeForChunkAvx2});
  if (k::Avx512Available()) {
    bodies.push_back({"avx512", k::EncodeForChunkAvx512});
  }
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  struct Case {
    int64_t min;
    uint64_t range;
    size_t width;
  };
  const Case cases[] = {
      {0, 0, 1},          {kMin, 0, 1},        {kMax, 0, 1},
      {-3, 255, 1},       {-3, 256, 2},        {7, 65535, 2},
      {7, 65536, 4},      {-1, 0xFFFFFFFF, 4}, {-1, uint64_t{1} << 32, 8},
      {kMin, ~uint64_t{0}, 8}};
  Rng rng(0xE4C0);
  for (const Case& c : cases) {
    std::vector<int64_t> cells(kChunkRows);
    for (int64_t& v : cells) {
      const uint64_t off =
          c.range == ~uint64_t{0} ? rng.Next() : rng.Next() % (c.range + 1);
      v = static_cast<int64_t>(static_cast<uint64_t>(c.min) + off);
    }
    // The extremes land anywhere, not only in the first slots.
    cells[rng.NextBounded(kChunkRows)] = c.min;
    cells[rng.NextBounded(kChunkRows)] =
        static_cast<int64_t>(static_cast<uint64_t>(c.min) + c.range);
    for (const auto& [name, body] : bodies) {
      ForChunk chunk;
      body(cells.data(), &chunk);
      EXPECT_EQ(chunk.base, static_cast<uint64_t>(c.min)) << name;
      EXPECT_EQ(chunk.range, c.range) << name;
      std::visit(
          [&](const auto& offsets) {
            EXPECT_EQ(sizeof(offsets[0]), c.width) << name;
            ASSERT_EQ(offsets.size(), kChunkRows) << name;
            for (size_t i = 0; i < kChunkRows; ++i) {
              ASSERT_EQ(static_cast<uint64_t>(offsets[i]),
                        static_cast<uint64_t>(cells[i]) - chunk.base)
                  << name << " row " << i;
            }
          },
          chunk.offsets);
    }
  }
}

// RebaseLeg must pass exactly the offsets whose cells the int64 leg passes,
// and say kNone / kAll exactly when no / every offset in [0, range] passes.
// Checked at every offset of small ranges, whose legs take every shape
// relative to the chunk: missing it, covering it, straddling either end,
// inside it, and wrapped round it (the != complement).
TEST(ScanKernelsTest, RebaseLegIsExactOnEveryOffset) {
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  const std::vector<int64_t> bases = {kMin, kMin + 1, -300, -1, 0, 1,
                                      250,  kMax - 255, kMax - 300};
  const std::vector<uint64_t> ranges = {0, 1, 2, 17, 255};
  const std::vector<int64_t> deltas = {-3, -1, 0, 1, 2, 8, 16, 17, 18, 254,
                                       255, 256};
  size_t kinds[3] = {};
  for (int64_t base : bases) {
    for (uint64_t range : ranges) {
      const auto b = static_cast<uint64_t>(base);
      for (int64_t dlo : deltas) {
        for (int64_t dhi : deltas) {
          // Plain [base + dlo, base + dhi], and its complement as != makes
          // it: [base + dhi + 1, base + dlo - 1] round the circle.
          for (bool wrap : {false, true}) {
            ScanLeg leg;
            leg.lo = b + static_cast<uint64_t>(wrap ? dhi + 1 : dlo);
            const uint64_t hi =
                b + static_cast<uint64_t>(wrap ? dlo - 1 : dhi);
            leg.span = hi - leg.lo;
            for (LegCells width : {LegCells::kU8, LegCells::kU64}) {
              ScanLeg out;
              const LegOnChunk on = RebaseLeg(leg, b, range, width, &out);
              ++kinds[static_cast<int>(on)];
              for (uint64_t off = 0; off <= range; ++off) {
                const uint64_t cell = b + off;
                const bool want = cell - leg.lo <= leg.span;
                bool got = on == LegOnChunk::kAll;
                if (on == LegOnChunk::kTest) {
                  const uint64_t mask = WidthMask(width);
                  ASSERT_EQ(out.cells, width);
                  ASSERT_LE(out.lo, mask);
                  ASSERT_LE(out.span, mask);
                  got = ((off - out.lo) & mask) <= out.span;
                }
                ASSERT_EQ(got, want)
                    << "base " << base << " range " << range << " leg ["
                    << leg.lo << " +" << leg.span << "] offset " << off;
              }
              bool any = false;
              bool every = true;
              for (uint64_t off = 0; off <= range; ++off) {
                const bool pass = (b + off) - leg.lo <= leg.span;
                any = any || pass;
                every = every && pass;
              }
              EXPECT_EQ(on == LegOnChunk::kNone, !any);
              EXPECT_EQ(on == LegOnChunk::kAll, every);
            }
          }
        }
      }
    }
  }
  EXPECT_GT(kinds[0], 0u);
  EXPECT_GT(kinds[1], 0u);
  EXPECT_GT(kinds[2], 0u);
}

// ------------------------------------------------------------ fingerprint ---

Schema FingerprintSchema() {
  return Schema({{"age", ValueType::kInt64},
                 {"income", ValueType::kDouble},
                 {"race", ValueType::kString},
                 {"opt_in", ValueType::kInt64},
                 {"zip", ValueType::kInt64}});
}

CompiledPredicate FC(const Predicate& p) {
  return *CompiledPredicate::Compile(p, FingerprintSchema());
}

TEST(CompiledPredicateFingerprint, NearMissPairsNeverCollide) {
  // The fingerprint-hygiene regression battery: every pair of these
  // predicates differs in column id, comparison op, typed constant (Int 1 vs
  // String "1"), IN-set contents, or tree structure — so every pair must get
  // a distinct canonical key AND a distinct 64-bit fingerprint. A collision
  // here would let the MaskCache serve one predicate's mask for another.
  const Predicate a1 = Predicate::Eq("age", Value(1));
  const std::vector<Predicate> preds = {
      // Literal near-misses on one int column.
      a1,
      Predicate::Eq("age", Value(2)),
      Predicate::Eq("age", Value(0)),
      Predicate::Eq("age", Value(-1)),
      // Every comparison op against the same (column, literal).
      Predicate::Ne("age", Value(1)),
      Predicate::Lt("age", Value(1)),
      Predicate::Le("age", Value(1)),
      Predicate::Gt("age", Value(1)),
      Predicate::Ge("age", Value(1)),
      // Same op + literal, different column id (and a double column).
      Predicate::Eq("opt_in", Value(1)),
      Predicate::Eq("zip", Value(1)),
      Predicate::Eq("income", Value(1.0)),
      // Typed constants: Int 1 vs String "1" (distinct column forces the
      // string form to compile; the leaf kind + column id both differ).
      Predicate::Eq("race", Value("1")),
      Predicate::Eq("race", Value("01")),
      Predicate::Eq("race", Value("")),
      Predicate::Ne("race", Value("1")),
      // IN near-misses: subset/superset, singleton-vs-Eq, string sets.
      Predicate::In("age", {Value(1)}),
      Predicate::In("age", {Value(1), Value(2)}),
      Predicate::In("age", {Value(1), Value(2), Value(3)}),
      Predicate::In("race", {Value("1")}),
      Predicate::In("race", {Value("1"), Value("2")}),
      // Structure: And vs Or over the same legs, Not, constants.
      Predicate::And(a1, Predicate::Eq("opt_in", Value(1))),
      Predicate::Or(a1, Predicate::Eq("opt_in", Value(1))),
      Predicate::Not(a1),
      Predicate::True(),
      Predicate::False(),
      // Semantically equivalent but structurally distinct pairs stay
      // distinct keys (a missed hit, never a wrong one).
      Predicate::Not(Predicate::Gt("age", Value(1))),
  };

  std::vector<CompiledPredicate> compiled;
  for (const Predicate& p : preds) compiled.push_back(FC(p));
  for (size_t i = 0; i < compiled.size(); ++i) {
    for (size_t j = i + 1; j < compiled.size(); ++j) {
      EXPECT_NE(*compiled[i].shared_canonical_key(),
                *compiled[j].shared_canonical_key())
          << "canonical collision between predicate " << i << " and " << j;
      EXPECT_NE(compiled[i].Fingerprint(), compiled[j].Fingerprint())
          << "fingerprint collision between predicate " << i << " and " << j;
    }
  }
}

TEST(CompiledPredicateFingerprint, CommutativeLegsFingerprintIdentically) {
  const Predicate a = Predicate::Le("age", Value(40));
  const Predicate b = Predicate::Eq("race", Value("C1"));
  const Predicate c = Predicate::Gt("income", Value(1000.0));

  // Leg order and association of an AND chain are canonicalized away...
  const uint64_t fp = FC(Predicate::And(a, Predicate::And(b, c))).Fingerprint();
  EXPECT_EQ(FC(Predicate::And(Predicate::And(c, b), a)).Fingerprint(), fp);
  EXPECT_EQ(FC(Predicate::And(b, Predicate::And(a, c))).Fingerprint(), fp);
  // ...same for OR, and the two kinds never mix.
  const uint64_t fo = FC(Predicate::Or(a, Predicate::Or(b, c))).Fingerprint();
  EXPECT_EQ(FC(Predicate::Or(Predicate::Or(c, a), b)).Fingerprint(), fo);
  EXPECT_NE(fo, fp);
  // Mixed nesting canonicalizes only within each maximal same-op chain.
  EXPECT_NE(FC(Predicate::And(a, Predicate::Or(b, c))).Fingerprint(), fp);
  EXPECT_EQ(FC(Predicate::And(Predicate::Or(c, b), a)).Fingerprint(),
            FC(Predicate::And(a, Predicate::Or(b, c))).Fingerprint());

  // IN literal order and duplicates are canonicalized away too.
  EXPECT_EQ(FC(Predicate::In("age", {Value(1), Value(2)})).Fingerprint(),
            FC(Predicate::In("age", {Value(2), Value(1), Value(1)}))
                .Fingerprint());

  // Int literals widened at compile time equal their double spelling: the
  // compiled programs are identical.
  EXPECT_EQ(FC(Predicate::Eq("age", Value(1))).Fingerprint(),
            FC(Predicate::Eq("age", Value(1.0))).Fingerprint());

  // Recompiling the same predicate reproduces the same key bytes.
  EXPECT_EQ(*FC(Predicate::And(a, b)).shared_canonical_key(),
            *FC(Predicate::And(a, b)).shared_canonical_key());
}

// Rebuilds `n` with every And/Or leg pair randomly swapped and every IN list
// randomly rotated — exactly the transformations Fingerprint() promises to
// canonicalize away.
Predicate CommuteTree(const Predicate::Node& n, Rng& rng) {
  switch (n.op) {
    case PredicateOp::kAnd:
    case PredicateOp::kOr: {
      Predicate l = CommuteTree(*n.left, rng);
      Predicate r = CommuteTree(*n.right, rng);
      const bool swap = rng.NextBernoulli(0.5);
      if (n.op == PredicateOp::kAnd) {
        return swap ? Predicate::And(std::move(r), std::move(l))
                    : Predicate::And(std::move(l), std::move(r));
      }
      return swap ? Predicate::Or(std::move(r), std::move(l))
                  : Predicate::Or(std::move(l), std::move(r));
    }
    case PredicateOp::kNot:
      return Predicate::Not(CommuteTree(*n.left, rng));
    case PredicateOp::kTrue:
      return Predicate::True();
    case PredicateOp::kFalse:
      return Predicate::False();
    case PredicateOp::kIn: {
      std::vector<Value> lits = n.literals;
      if (!lits.empty()) {
        std::rotate(lits.begin(),
                    lits.begin() + rng.NextBounded(lits.size()), lits.end());
        if (rng.NextBernoulli(0.5)) lits.push_back(lits.front());  // dup
      }
      return Predicate::In(n.column, std::move(lits));
    }
    case PredicateOp::kEq:
      return Predicate::Eq(n.column, n.literals[0]);
    case PredicateOp::kNe:
      return Predicate::Ne(n.column, n.literals[0]);
    case PredicateOp::kLt:
      return Predicate::Lt(n.column, n.literals[0]);
    case PredicateOp::kLe:
      return Predicate::Le(n.column, n.literals[0]);
    case PredicateOp::kGt:
      return Predicate::Gt(n.column, n.literals[0]);
    case PredicateOp::kGe:
      return Predicate::Ge(n.column, n.literals[0]);
  }
  OSDP_CHECK(false);
  return Predicate::False();
}

TEST(CompiledPredicateFingerprint, EqualCanonicalKeysImplyBitIdenticalMasks) {
  // The soundness property the MaskCache rests on: predicates that share a
  // canonical key produce bit-identical masks on every table. Each random
  // tree is paired with a commuted clone (guaranteed-equal canonical keys);
  // independent trees check the distinctness side.
  Rng rng(0xF1D0);
  int commuted_pairs = 0;
  for (int iter = 0; iter < 300; ++iter) {
    const Schema schema = RandomSchema(rng);
    const Table table = RandomTable(schema, rng);
    const Predicate p = RandomTree(schema, rng, 3);
    const Predicate shuffled = CommuteTree(*p.root(), rng);
    auto cp = CompiledPredicate::Compile(p, schema);
    auto cs = CompiledPredicate::Compile(shuffled, schema);
    ASSERT_EQ(cp.ok(), cs.ok()) << "commuting changed compilability";
    if (cp.ok()) {
      ++commuted_pairs;
      EXPECT_EQ(*cp->shared_canonical_key(), *cs->shared_canonical_key());
      EXPECT_EQ(cp->Fingerprint(), cs->Fingerprint());
      EXPECT_TRUE(cp->EvalMask(table) == cs->EvalMask(table))
          << "equal canonical keys but diverging masks at iter " << iter;
    }

    const Predicate q = RandomTree(schema, rng, 3);
    auto cq = CompiledPredicate::Compile(q, schema);
    if (cp.ok() && cq.ok() &&
        *cp->shared_canonical_key() != *cq->shared_canonical_key()) {
      // At 64 bits a failure here means the hash lost injectivity
      // catastrophically, not an unlucky draw.
      EXPECT_NE(cp->Fingerprint(), cq->Fingerprint());
    }
  }
  EXPECT_GT(commuted_pairs, 100);
}

}  // namespace
}  // namespace osdp
