// Tests for src/hist: Domain, Histogram, SparseHistogram, queries.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/common/check.h"

#include "src/data/predicate.h"
#include "src/hist/domain.h"
#include "src/hist/histogram.h"
#include "src/hist/histogram_query.h"
#include "src/hist/sparse_histogram.h"
#include "tests/table_rows.h"

namespace osdp {
namespace {

// ---------------------------------------------------------------- Domain ---

TEST(DomainTest, CategoricalBins) {
  Domain1D d = Domain1D::Categorical(5);
  EXPECT_EQ(d.size(), 5u);
  EXPECT_TRUE(d.is_categorical());
  EXPECT_EQ(d.BinOfCategory(0), 0u);
  EXPECT_EQ(d.BinOfCategory(4), 4u);
}

TEST(DomainTest, CategoricalClampsOutOfRangeCodes) {
  Domain1D d = Domain1D::Categorical(4);
  EXPECT_EQ(d.BinOfCategory(-1), 0u);
  EXPECT_EQ(d.BinOfCategory(std::numeric_limits<int64_t>::min()), 0u);
  EXPECT_EQ(d.BinOfCategory(4), 3u);
  EXPECT_EQ(d.BinOfCategory(16), 3u);
  EXPECT_EQ(d.BinOfCategory(std::numeric_limits<int64_t>::max()), 3u);
}

TEST(DomainTest, NumericBinning) {
  Domain1D d = *Domain1D::Numeric(0.0, 10.0, 5);
  EXPECT_EQ(d.BinOf(0.0), 0u);
  EXPECT_EQ(d.BinOf(1.99), 0u);
  EXPECT_EQ(d.BinOf(2.0), 1u);
  EXPECT_EQ(d.BinOf(9.99), 4u);
}

TEST(DomainTest, NumericClampsOutOfRange) {
  Domain1D d = *Domain1D::Numeric(0.0, 10.0, 5);
  EXPECT_EQ(d.BinOf(-3.0), 0u);
  EXPECT_EQ(d.BinOf(10.0), 4u);
  EXPECT_EQ(d.BinOf(1e9), 4u);
}

TEST(DomainTest, NumericValidates) {
  EXPECT_FALSE(Domain1D::Numeric(5.0, 5.0, 3).ok());
  EXPECT_FALSE(Domain1D::Numeric(0.0, 1.0, 0).ok());
  // NaN bounds fail the lo < hi test.
  EXPECT_FALSE(Domain1D::Numeric(std::nan(""), 1.0, 3).ok());
  EXPECT_FALSE(Domain1D::Numeric(0.0, std::nan(""), 3).ok());
}

// An infinite bound makes every bin width infinite, so BinOf would cast a
// NaN quotient to size_t (undefined; -fsanitize=float-cast-overflow aborts).
TEST(DomainTest, NumericRejectsInfiniteBounds) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Domain1D::Numeric(-inf, 0.0, 10).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Domain1D::Numeric(0.0, inf, 10).status().code(),
            StatusCode::kInvalidArgument);
}

// Finite bounds whose difference overflows would put every value in bin 0;
// a width that underflows to 0 would divide by zero.
TEST(DomainTest, NumericRejectsOverflowingOrVanishingWidth) {
  EXPECT_EQ(Domain1D::Numeric(-1e308, 1e308, 10).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Domain1D::Numeric(0.0, 4.9e-324, 10).status().code(),
            StatusCode::kInvalidArgument);
  // The widest domain that fits still bins values across its range.
  const Domain1D wide = *Domain1D::Numeric(-8e307, 8e307, 10);
  EXPECT_EQ(wide.BinOf(-7.9e307), 0u);
  EXPECT_EQ(wide.BinOf(1e306), 5u);
  EXPECT_EQ(wide.BinOf(7.9e307), 9u);
}

TEST(DomainTest, BinBounds) {
  Domain1D d = *Domain1D::Numeric(0.0, 10.0, 5);
  auto [lo, hi] = d.BinBounds(1);
  EXPECT_DOUBLE_EQ(lo, 2.0);
  EXPECT_DOUBLE_EQ(hi, 4.0);
}

// ------------------------------------------------------------- Histogram ---

TEST(HistogramTest, BasicCountsAndTotal) {
  Histogram h(4);
  h.Add(0);
  h.Add(0);
  h.Add(3, 2.5);
  EXPECT_DOUBLE_EQ(h[0], 2.0);
  EXPECT_DOUBLE_EQ(h[3], 2.5);
  EXPECT_DOUBLE_EQ(h.Total(), 4.5);
}

TEST(HistogramTest, SparsityAndZeroBins) {
  Histogram h({0, 2, 0, 0});
  EXPECT_EQ(h.ZeroBins(), 3u);
  EXPECT_DOUBLE_EQ(h.Sparsity(), 0.75);
}

TEST(HistogramTest, Domination) {
  Histogram x({5, 3, 2});
  Histogram xns({4, 3, 0});
  EXPECT_TRUE(xns.DominatedBy(x));
  EXPECT_FALSE(x.DominatedBy(xns));
}

TEST(HistogramTest, ClampNonNegative) {
  Histogram h({-1.5, 2.0, -0.1});
  h.ClampNonNegative();
  EXPECT_DOUBLE_EQ(h[0], 0.0);
  EXPECT_DOUBLE_EQ(h[1], 2.0);
  EXPECT_DOUBLE_EQ(h[2], 0.0);
}

TEST(HistogramTest, ValidateNonNegative) {
  Histogram h({1, 2, 3, 4});
  EXPECT_TRUE(h.ValidateNonNegative().ok());
  Histogram bad({1, -2});
  EXPECT_FALSE(bad.ValidateNonNegative().ok());
}

TEST(Histogram2DTest, IndexingMatchesFlat) {
  Histogram2D h(3, 4);
  h.Add(1, 2, 5.0);
  h.Add(2, 3);
  EXPECT_DOUBLE_EQ(h.At(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(h.flat()[1 * 4 + 2], 5.0);
  EXPECT_DOUBLE_EQ(h.At(2, 3), 1.0);
}

// ------------------------------------------------------ SparseHistogram ----

TEST(SparseHistogramTest, GetSetAdd) {
  SparseHistogram h(1e12);
  EXPECT_DOUBLE_EQ(h.Get(42), 0.0);
  h.Add(42, 2.0);
  h.Add(42);
  EXPECT_DOUBLE_EQ(h.Get(42), 3.0);
  EXPECT_EQ(h.num_materialized(), 1u);
}

TEST(NGramEncodingTest, RoundTrips) {
  const std::vector<int> gram = {3, 0, 63, 17};
  const uint64_t cell = EncodeNGram(gram, 64);
  EXPECT_EQ(DecodeNGram(cell, 64, 4), gram);
}

TEST(NGramEncodingTest, DistinctGramsGetDistinctCells) {
  EXPECT_NE(EncodeNGram({1, 2}, 64), EncodeNGram({2, 1}, 64));
  EXPECT_NE(EncodeNGram({0, 1}, 64), EncodeNGram({1, 0}, 64));
}

TEST(NGramEncodingTest, LargestEncodableGramStillRoundTrips) {
  // 10 symbols over a 64-letter alphabet use exactly 60 bits — the overflow
  // guard must not fire on legal inputs right below the limit.
  const std::vector<int> gram(10, 63);
  EXPECT_EQ(DecodeNGram(EncodeNGram(gram, 64), 64, 10), gram);
}

TEST(NGramEncodingDeathTest, OverflowAbortsInsteadOfWrapping) {
  // 11 symbols over a 64-letter alphabet need 66 bits; the encoding used to
  // wrap uint64 silently, aliasing distinct n-grams onto one cell so two
  // different trajectories became indistinguishable downstream.
  const std::vector<int> gram(11, 63);
  EXPECT_DEATH(EncodeNGram(gram, 64), "overflows uint64");
}

// -------------------------------------------------------- HistogramQuery ---

Table AgeTable() {
  std::vector<Row> rows;
  for (int64_t age : {12, 25, 37, 37, 64, 99}) {
    rows.push_back({Value(age), Value(age < 30 ? "A" : "B")});
  }
  return TableFromRows(
      Schema({{"age", ValueType::kInt64}, {"city", ValueType::kString}}),
      rows);
}

TEST(HistogramQueryTest, GroupByBinnedAge) {
  Table t = AgeTable();
  HistogramQuery q{"age", *Domain1D::Numeric(0, 100, 4), std::nullopt};
  Histogram h = *ComputeHistogram(t, q);
  // Bins: [0,25) [25,50) [50,75) [75,100).
  EXPECT_DOUBLE_EQ(h[0], 1.0);
  EXPECT_DOUBLE_EQ(h[1], 3.0);
  EXPECT_DOUBLE_EQ(h[2], 1.0);
  EXPECT_DOUBLE_EQ(h[3], 1.0);
}

TEST(HistogramQueryTest, WhereConditionFilters) {
  Table t = AgeTable();
  HistogramQuery q{"age", *Domain1D::Numeric(0, 100, 4),
                   Predicate::Eq("city", Value("B"))};
  Histogram h = *ComputeHistogram(t, q);
  EXPECT_DOUBLE_EQ(h.Total(), 4.0);
  EXPECT_DOUBLE_EQ(h[0], 0.0);
}

TEST(HistogramQueryTest, MaskSelectsRows) {
  Table t = AgeTable();
  HistogramQuery q{"age", *Domain1D::Numeric(0, 100, 4), std::nullopt};
  const RowMask mask =
      RowMask::FromBools({true, false, true, false, true, false});
  Histogram h = *ComputeHistogramMasked(t, q, mask);
  EXPECT_DOUBLE_EQ(h.Total(), 3.0);
}

TEST(HistogramQueryTest, MaskSizeValidated) {
  Table t = AgeTable();
  HistogramQuery q{"age", *Domain1D::Numeric(0, 100, 4), std::nullopt};
  EXPECT_FALSE(ComputeHistogramMasked(t, q, RowMask(1)).ok());
}

TEST(HistogramQueryTest, NanBinsIntoEdgeBin) {
  const Table t = TableFromRows(Schema({{"x", ValueType::kDouble}}),
                                {{Value(std::nan(""))}, {Value(50.0)}});
  HistogramQuery q{"x", *Domain1D::Numeric(0, 100, 4), std::nullopt};
  Histogram h = *ComputeHistogram(t, q);
  EXPECT_DOUBLE_EQ(h[0], 1.0);  // NaN clamps to bin 0, no UB / OOB write
  EXPECT_DOUBLE_EQ(h[2], 1.0);
  EXPECT_DOUBLE_EQ(h.Total(), 2.0);
}

TEST(HistogramQueryTest, MalformedQueryErrorsEvenWithEmptyMask) {
  // Query shape is validated up front, independent of row selection: binning
  // a string column fails even when the mask selects no rows at all.
  Table t = AgeTable();
  HistogramQuery q{"city", *Domain1D::Numeric(0, 100, 4), std::nullopt};
  EXPECT_FALSE(ComputeHistogramMasked(t, q, RowMask(t.num_rows())).ok());
}

TEST(HistogramQueryTest, MalformedQueryErrorCodesAndPrecedence) {
  // An unknown grouped column is NotFound, an ill-typed WHERE is
  // InvalidArgument, and the column is checked before the WHERE clause.
  Table t = AgeTable();
  const Domain1D domain = *Domain1D::Numeric(0, 100, 4);
  const RowMask all(t.num_rows(), /*value=*/true);
  const Predicate bad_where = Predicate::Eq("city", Value(3));
  const auto code = [&](const HistogramQuery& q) {
    return ComputeHistogramMasked(t, q, all).status().code();
  };
  EXPECT_EQ(code({"nope", domain, std::nullopt}), StatusCode::kNotFound);
  EXPECT_EQ(code({"age", domain, bad_where}), StatusCode::kInvalidArgument);
  EXPECT_EQ(code({"nope", domain, bad_where}), StatusCode::kNotFound);
}

TEST(HistogramQueryTest, CategoricalOverInt) {
  const Table t = TableFromRows(Schema({{"ap", ValueType::kInt64}}),
                                {{Value(0)}, {Value(1)}, {Value(1)}, {Value(2)}});
  HistogramQuery q{"ap", Domain1D::Categorical(4), std::nullopt};
  Histogram h = *ComputeHistogram(t, q);
  EXPECT_DOUBLE_EQ(h[1], 2.0);
  EXPECT_DOUBLE_EQ(h[3], 0.0);  // zero groups reported too
}

TEST(HistogramQueryTest, CategoricalCodesOutsideTheDomainBinIntoEdgeBins) {
  std::vector<Row> rows;
  for (int64_t ap : {-7, -1, 0, 2, 3, 4, 16}) rows.push_back({Value(ap)});
  const Table t = TableFromRows(Schema({{"ap", ValueType::kInt64}}), rows);
  HistogramQuery q{"ap", Domain1D::Categorical(4), std::nullopt};
  Histogram h = *ComputeHistogram(t, q);
  EXPECT_EQ(h.counts(), (std::vector<double>{3.0, 0.0, 1.0, 3.0}));
}

TEST(HistogramQueryTest, StringColumnRejected) {
  Table t = AgeTable();
  HistogramQuery q{"city", Domain1D::Categorical(2), std::nullopt};
  EXPECT_FALSE(ComputeHistogram(t, q).ok());
}

}  // namespace
}  // namespace osdp
