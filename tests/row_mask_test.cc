// Tests for src/data/row_mask.h: the packed bitmap of the scan layer.

#include "src/data/row_mask.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/data/bit_kernels.h"

namespace osdp {
namespace {

TEST(RowMaskTest, ConstructAllClearAndAllSet) {
  RowMask clear(130);
  EXPECT_EQ(clear.size(), 130u);
  EXPECT_EQ(clear.Count(), 0u);
  RowMask set(130, true);
  EXPECT_EQ(set.Count(), 130u);
  EXPECT_TRUE(set.Test(0));
  EXPECT_TRUE(set.Test(129));
}

TEST(RowMaskTest, SetTestAndCount) {
  RowMask m(100);
  m.Set(0);
  m.Set(63);
  m.Set(64);
  m.Set(99);
  EXPECT_EQ(m.Count(), 4u);
  EXPECT_TRUE(m.Test(63));
  EXPECT_FALSE(m.Test(62));
  m.Set(63, false);
  EXPECT_EQ(m.Count(), 3u);
}

TEST(RowMaskTest, TailBitsStayZeroAcrossMutators) {
  // 70 rows -> 2 words, 58 tail bits that must never leak into Count().
  RowMask m(70, true);
  EXPECT_EQ(m.Count(), 70u);
  m.FlipAll();
  EXPECT_EQ(m.Count(), 0u);
  m.FlipAll();
  EXPECT_EQ(m.Count(), 70u);
}

TEST(RowMaskTest, LogicalCombination) {
  RowMask a(80), b(80);
  for (size_t i = 0; i < 80; i += 2) a.Set(i);  // evens
  for (size_t i = 0; i < 80; i += 3) b.Set(i);  // multiples of 3
  RowMask both = a;
  both.AndWith(b);
  EXPECT_EQ(both.Count(), 80u / 6 + 1);  // multiples of 6 in [0, 80)
  RowMask diff = a;
  diff.AndNotWith(b);
  EXPECT_EQ(diff.Count(), 40u - 14u);
}

TEST(RowMaskTest, IntersectsAndSubset) {
  RowMask a(80), b(80), c(80);
  a.Set(5);
  a.Set(70);
  b.Set(70);
  c.Set(12);
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_TRUE(b.IsSubsetOf(a));
  EXPECT_FALSE(a.IsSubsetOf(b));
  EXPECT_TRUE(RowMask(80).IsSubsetOf(a));   // empty set is a subset
  EXPECT_FALSE(RowMask(80).Intersects(a));  // and intersects nothing
}

TEST(RowMaskTest, ForEachSetAscendingAndSparse) {
  RowMask m(200);
  const std::vector<size_t> rows = {0, 1, 63, 64, 65, 127, 128, 199};
  for (size_t r : rows) m.Set(r);
  std::vector<size_t> seen;
  m.ForEachSet([&](size_t r) { seen.push_back(r); });
  EXPECT_EQ(seen, rows);
  EXPECT_EQ(m.ToIndices(), rows);
}

TEST(RowMaskTest, BoolsRoundTrip) {
  Rng rng(42);
  std::vector<bool> bools(137);
  for (size_t i = 0; i < bools.size(); ++i) bools[i] = rng.NextBernoulli(0.3);
  RowMask m = RowMask::FromBools(bools);
  EXPECT_EQ(m.ToBools(), bools);
  size_t expected = 0;
  for (bool b : bools) expected += b ? 1 : 0;
  EXPECT_EQ(m.Count(), expected);
}

TEST(RowMaskTest, EqualityAndEmpty) {
  EXPECT_TRUE(RowMask().empty());
  RowMask a(65), b(65);
  EXPECT_EQ(a, b);
  a.Set(64);
  EXPECT_NE(a, b);
  b.Set(64);
  EXPECT_EQ(a, b);
  EXPECT_NE(RowMask(64), RowMask(65));
}

TEST(RowMaskTest, ZeroRows) {
  EXPECT_EQ(RowMask(0, true).Count(), 0u);
  RowMask m(0);
  EXPECT_EQ(m.Count(), 0u);
  m.FlipAll();
  EXPECT_EQ(m.Count(), 0u);
  size_t calls = 0;
  m.ForEachSet([&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0u);
}

RowMask RandomMask(size_t rows, double density, Rng& rng) {
  RowMask m(rows);
  for (size_t i = 0; i < rows; ++i) {
    if (rng.NextBernoulli(density)) m.Set(i);
  }
  return m;
}

// Set bits of words [lo, hi) of `a` (ANDed with `b` when given), counted
// bit by bit through Test(): independent of every popcount kernel.
size_t BitOracle(const RowMask& a, const RowMask* b, size_t lo, size_t hi) {
  size_t n = 0;
  for (size_t i = lo * 64; i < std::min(hi * 64, a.size()); ++i) {
    n += (a.Test(i) && (b == nullptr || b->Test(i))) ? 1 : 0;
  }
  return n;
}

// Sizes around the tail word: empty, one partial word, exact words, and a
// partial last word after whole ones.
const size_t kTailSizes[] = {0, 1, 63, 64, 65, 127, 128, 129, 191, 640, 1001};

TEST(BitKernelsTest, BothBodiesMatchTheBitOracle) {
  namespace k = bit_kernels_internal;
  using Popcount = size_t (*)(const uint64_t*, size_t, size_t);
  using AndPopcount = size_t (*)(const uint64_t*, const uint64_t*, size_t,
                                 size_t);
  struct Body {
    const char* name;
    Popcount popcount;
    AndPopcount and_popcount;
  };
  std::vector<Body> bodies = {
      {"portable", k::PopcountWordsPortable, k::AndPopcountWordsPortable},
      {"dispatch", PopcountWords, AndPopcountWords}};
  if (k::HardwarePopcountAvailable()) {
    bodies.push_back(
        {"hardware", k::PopcountWordsHardware, k::AndPopcountWordsHardware});
  }
  Rng rng(0xB17);
  for (size_t rows : kTailSizes) {
    for (double density : {0.0, 0.3, 0.9, 1.0}) {
      const RowMask a = RandomMask(rows, density, rng);
      const RowMask b = RandomMask(rows, 0.5, rng);
      const size_t words = a.num_words();
      for (const Body& body : bodies) {
        // Whole mask, then every [lo, hi) sub-range of up to three words at
        // each end (the shard shapes ParallelCount hands the kernels).
        EXPECT_EQ(body.popcount(a.words(), 0, words),
                  BitOracle(a, nullptr, 0, words))
            << body.name << " rows=" << rows;
        for (size_t lo = 0; lo <= words; ++lo) {
          for (size_t hi = lo; hi <= words; ++hi) {
            if (lo > 3 && hi + 3 < words) continue;
            ASSERT_EQ(body.popcount(a.words(), lo, hi),
                      BitOracle(a, nullptr, lo, hi))
                << body.name << " rows=" << rows << " [" << lo << "," << hi
                << ")";
            ASSERT_EQ(body.and_popcount(a.words(), b.words(), lo, hi),
                      BitOracle(a, &b, lo, hi))
                << body.name << " rows=" << rows << " [" << lo << "," << hi
                << ")";
          }
        }
      }
      EXPECT_EQ(a.Count(), BitOracle(a, nullptr, 0, words));
    }
  }
}

TEST(RowMaskTest, TwoMaskForEachSetInRangeWalksTheIntersection) {
  // The two-mask walk must visit exactly the rows of a materialized
  // this ∧ also, in the same order, on unaligned sub-ranges too.
  Rng rng(0x2A);
  for (size_t rows : kTailSizes) {
    const RowMask a = RandomMask(rows, 0.6, rng);
    const RowMask b = RandomMask(rows, 0.6, rng);
    RowMask both = a;
    both.AndWith(b);
    for (size_t begin : {size_t{0}, size_t{1}, size_t{63}, size_t{64}}) {
      for (size_t end : {rows, rows / 2, size_t{65}}) {
        if (begin > end || end > rows) continue;
        std::vector<size_t> fused, copied;
        a.ForEachSetInRange(b, begin, end,
                            [&](size_t r) { fused.push_back(r); });
        both.ForEachSetInRange(begin, end,
                               [&](size_t r) { copied.push_back(r); });
        ASSERT_EQ(fused, copied)
            << "rows=" << rows << " [" << begin << "," << end << ")";
      }
    }
  }
}

}  // namespace
}  // namespace osdp
