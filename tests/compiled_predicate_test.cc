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
#include <string>
#include <utility>
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
  Table t(schema);
  const size_t rows = rng.NextBounded(151);  // includes the empty table
  Row row(schema.num_fields());
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < schema.num_fields(); ++c) {
      row[c] = RandomValueOf(schema.field(c).type, rng);
    }
    t.AppendRowUnchecked(row);
  }
  return t;
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
      ASSERT_EQ(ReferenceEval(pred, schema, table.GetRow(r)), expected);
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
    Table bounded(schema);
    Row row(2);
    for (size_t r = 0; r < table.num_rows(); ++r) {
      row[0] = Value(static_cast<int64_t>(rng.NextBounded(64)));
      row[1] = table.GetValue(r, 1);
      bounded.AppendRowUnchecked(row);
    }

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
  Table t(schema);
  OSDP_CHECK(t.AppendRow({Value(5)}).ok());
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
        << pred.ToString() << " row " << table.GetValue(r, 0).ToString();
  }
}

TEST(CompiledPredicateTest, IntColumnLiteralEdgesMatchDoubleCompare) {
  // An int64 comparison compiles to an exact integer interval; it must give
  // the double compare's answer for every literal, including where rounding
  // merges neighbours (at L = 2^53, row 2^53 + 1 equals L as a double).
  const Schema schema({{"v", ValueType::kInt64}});
  Table table(schema);
  for (int64_t v : EdgeRows()) table.AppendRowUnchecked({Value(v)});
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
  Table table(schema);
  const std::vector<Value> lits = EdgeLiterals();
  for (const Value& lit : lits) table.AppendRowUnchecked({lit.AsNumeric()});
  for (const Value& lit : lits) {
    for (PredicateOp op : kCmpOps) {
      ExpectMatchesReference(Compare(op, "d", lit), table);
    }
  }
}

// ------------------------------------------------------------ scan kernels ---

// Leg `leg` on cell i, by definition: membership in the wrapped interval
// [lo, lo + span] of the 2^64 circle for ints, the IEEE compare for doubles.
bool LegOracle(const ScanLeg& leg, const void* cells, size_t i) {
  if (leg.is_int) {
    const auto u = static_cast<uint64_t>(static_cast<const int64_t*>(cells)[i]);
    const uint64_t hi = leg.lo + leg.span;
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

  // Values that sit on interval ends and wrap points.
  const std::vector<int64_t> ints = {
      std::numeric_limits<int64_t>::min(), -1, 0, 1, 2, 40, 41,
      std::numeric_limits<int64_t>::max()};
  const std::vector<double> doubles = DoublePool();
  Rng rng(0x5CA7);
  // Besides word edges, sizes around 8, 16 and 32 rows cross the vector
  // widths of the tail-word loops, whose epilogues differ per body.
  for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                   size_t{15}, size_t{16}, size_t{17}, size_t{31}, size_t{32},
                   size_t{33}, size_t{63}, size_t{64}, size_t{65}, size_t{127},
                   size_t{128}, size_t{1001}, kChunkRows}) {
    // Leg kinds met at this size: int plain, int wrapped, double, NaN literal.
    bool seen[4] = {false, false, false, false};
    for (int trial = 0; trial < 20; ++trial) {
      const size_t num_legs = 1 + rng.NextBounded(kMaxFusedLegs);
      std::vector<ScanLeg> legs(num_legs);
      std::vector<std::vector<int64_t>> int_cells(num_legs);
      std::vector<std::vector<double>> double_cells(num_legs);
      std::vector<const void*> cells(num_legs);
      for (size_t j = 0; j < num_legs; ++j) {
        ScanLeg& leg = legs[j];
        leg.is_int = rng.NextBernoulli(0.5);
        if (leg.is_int) {
          leg.lo = static_cast<uint64_t>(ints[rng.NextBounded(ints.size())]);
          const uint64_t spans[] = {0, 1, 40, ~uint64_t{0}, ~uint64_t{0} - 1,
                                    rng.Next()};
          leg.span = spans[rng.NextBounded(6)];
          seen[leg.lo + leg.span < leg.lo ? 1 : 0] = true;
          for (size_t i = 0; i < n; ++i) {
            int_cells[j].push_back(
                rng.NextBernoulli(0.8)
                    ? ints[rng.NextBounded(ints.size())]
                    : static_cast<int64_t>(rng.Next()));
          }
          cells[j] = int_cells[j].data();
        } else {
          leg.cmp = kCmpOps[rng.NextBounded(6)];
          leg.lit = doubles[rng.NextBounded(doubles.size())];
          seen[std::isnan(leg.lit) ? 3 : 2] = true;
          for (size_t i = 0; i < n; ++i) {
            double_cells[j].push_back(doubles[rng.NextBounded(doubles.size())]);
          }
          cells[j] = double_cells[j].data();
        }
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
    EXPECT_TRUE(seen[0] && seen[1] && seen[2] && seen[3]) << "n=" << n;
  }
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
      EXPECT_NE(compiled[i].canonical_key(), compiled[j].canonical_key())
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
  EXPECT_EQ(FC(Predicate::And(a, b)).canonical_key(),
            FC(Predicate::And(a, b)).canonical_key());
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
      EXPECT_EQ(cp->canonical_key(), cs->canonical_key());
      EXPECT_EQ(cp->Fingerprint(), cs->Fingerprint());
      EXPECT_TRUE(cp->EvalMask(table) == cs->EvalMask(table))
          << "equal canonical keys but diverging masks at iter " << iter;
    }

    const Predicate q = RandomTree(schema, rng, 3);
    auto cq = CompiledPredicate::Compile(q, schema);
    if (cp.ok() && cq.ok() &&
        cp->canonical_key() != cq->canonical_key()) {
      // At 64 bits a failure here means the hash lost injectivity
      // catastrophically, not an unlucky draw.
      EXPECT_NE(cp->Fingerprint(), cq->Fingerprint());
    }
  }
  EXPECT_GT(commuted_pairs, 100);
}

}  // namespace
}  // namespace osdp
