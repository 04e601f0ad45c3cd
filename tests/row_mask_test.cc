// Tests for src/data/row_mask.h: the packed bitmap of the scan layer.

#include "src/data/row_mask.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/check.h"
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
  EXPECT_EQ(RowMask().size(), 0u);
  RowMask a(65), b(65);
  EXPECT_EQ(a, b);
  a.Set(64);
  EXPECT_FALSE(a == b);
  b.Set(64);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(RowMask(64) == RowMask(65));
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
// partial last word after whole ones. All fit in one block.
const size_t kTailSizes[] = {0, 1, 63, 64, 65, 127, 128, 129, 191, 640, 1001};

// The words of a mask of at most one block, for the flat word kernels.
const uint64_t* OneBlock(const RowMask& m) {
  OSDP_CHECK(m.num_blocks() <= 1);
  return m.num_blocks() == 0 ? nullptr : m.block(0);
}

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
        EXPECT_EQ(body.popcount(OneBlock(a), 0, words),
                  BitOracle(a, nullptr, 0, words))
            << body.name << " rows=" << rows;
        for (size_t lo = 0; lo <= words; ++lo) {
          for (size_t hi = lo; hi <= words; ++hi) {
            if (lo > 3 && hi + 3 < words) continue;
            ASSERT_EQ(body.popcount(OneBlock(a), lo, hi),
                      BitOracle(a, nullptr, lo, hi))
                << body.name << " rows=" << rows << " [" << lo << "," << hi
                << ")";
            ASSERT_EQ(body.and_popcount(OneBlock(a), OneBlock(b), lo, hi),
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

// ------------------------------------------------------------------ blocks ---

// Sizes around the 4096-row block edge: one row short of a block, exactly
// one, one past it, and several blocks with a ragged, word-unaligned tail.
const size_t kBlockSizes[] = {kChunkRows - 1, kChunkRows, kChunkRows + 1,
                              2 * kChunkRows, 3 * kChunkRows + 17};

// The bits of a mask, read one row at a time.
std::vector<bool> Bits(const RowMask& m) {
  std::vector<bool> out(m.size());
  for (size_t i = 0; i < m.size(); ++i) out[i] = m.Test(i);
  return out;
}

TEST(RowMaskBlockTest, BlocksHoldTheWordsOfTheirChunk) {
  Rng rng(0xB10C);
  for (size_t rows : kBlockSizes) {
    const RowMask m = RandomMask(rows, 0.4, rng);
    ASSERT_EQ(m.num_blocks(), (rows + kChunkRows - 1) / kChunkRows);
    size_t words = 0;
    for (size_t b = 0; b < m.num_blocks(); ++b) {
      words += m.block_words(b);
      for (size_t w = 0; w < m.block_words(b); ++w) {
        for (size_t bit = 0; bit < 64; ++bit) {
          const size_t row = b * kChunkRows + w * 64 + bit;
          const bool set = (m.block(b)[w] >> bit) & 1;
          ASSERT_EQ(set, row < rows && m.Test(row)) << "rows=" << rows
                                                    << " row=" << row;
        }
      }
    }
    EXPECT_EQ(words, m.num_words());
  }
}

TEST(RowMaskBlockTest, RangeCountsMatchTheBitOracleAcrossBlockEdges) {
  Rng rng(0xC0DE);
  for (size_t rows : kBlockSizes) {
    const RowMask a = RandomMask(rows, 0.5, rng);
    const RowMask b = RandomMask(rows, 0.5, rng);
    const std::vector<size_t> edges = {0,          1,        63,
                                       64,         kChunkRows - 1,
                                       kChunkRows, kChunkRows + 65,
                                       rows / 2,   rows - 1,
                                       rows};
    for (size_t begin : edges) {
      for (size_t end : edges) {
        if (begin > end || end > rows) continue;
        size_t want = 0;
        size_t want_and = 0;
        for (size_t i = begin; i < end; ++i) {
          want += a.Test(i) ? 1 : 0;
          want_and += (a.Test(i) && b.Test(i)) ? 1 : 0;
        }
        ASSERT_EQ(a.CountInRange(begin, end), want)
            << "rows=" << rows << " [" << begin << "," << end << ")";
        ASSERT_EQ(a.AndCountInRange(b, begin, end), want_and)
            << "rows=" << rows << " [" << begin << "," << end << ")";
      }
    }
    EXPECT_EQ(a.Count(), a.CountInRange(0, rows));
  }
}

TEST(RowMaskBlockTest, CopySharesEveryBlockAndAWriteCopiesOnlyItsBlock) {
  Rng rng(0x5A4E);
  const size_t rows = 3 * kChunkRows + 17;
  RowMask source = RandomMask(rows, 0.5, rng);
  const std::vector<bool> source_bits = Bits(source);

  RowMask copy = source;
  ASSERT_EQ(copy.SpineIdentity(), source.SpineIdentity());
  for (size_t b = 0; b < source.num_blocks(); ++b) {
    ASSERT_EQ(copy.BlockIdentity(b), source.BlockIdentity(b)) << "block " << b;
  }

  // A write through the copy into a sealed block copies that block alone.
  copy.Set(kChunkRows + 5, !source.Test(kChunkRows + 5));
  EXPECT_NE(copy.BlockIdentity(1), source.BlockIdentity(1));
  EXPECT_EQ(copy.BlockIdentity(0), source.BlockIdentity(0));
  EXPECT_EQ(copy.BlockIdentity(2), source.BlockIdentity(2));
  EXPECT_EQ(copy.BlockIdentity(3), source.BlockIdentity(3));
  EXPECT_EQ(Bits(source), source_bits);

  // The source writes its shared tail and a sealed block the copy reads:
  // both are copied first, so the copy still sees the old bits.
  const std::vector<bool> copy_bits = Bits(copy);
  source.Set(rows - 1, !source.Test(rows - 1));
  source.Set(2, !source.Test(2));
  EXPECT_NE(source.BlockIdentity(3), copy.BlockIdentity(3));
  EXPECT_NE(source.BlockIdentity(0), copy.BlockIdentity(0));
  EXPECT_EQ(source.BlockIdentity(2), copy.BlockIdentity(2));
  EXPECT_EQ(Bits(copy), copy_bits);
}

TEST(RowMaskBlockTest, CombinersOnACopyLeaveTheSourceIntact) {
  Rng rng(0xF11B);
  for (size_t rows : kBlockSizes) {
    const RowMask a = RandomMask(rows, 0.5, rng);
    const RowMask b = RandomMask(rows, 0.5, rng);
    const std::vector<bool> a_bits = Bits(a);
    RowMask and_copy = a;
    and_copy.AndWith(b);
    RowMask andnot_copy = a;
    andnot_copy.AndNotWith(b);
    RowMask flip_copy = a;
    flip_copy.FlipAll();
    for (size_t i = 0; i < rows; ++i) {
      ASSERT_EQ(and_copy.Test(i), a_bits[i] && b.Test(i)) << i;
      ASSERT_EQ(andnot_copy.Test(i), a_bits[i] && !b.Test(i)) << i;
      ASSERT_EQ(flip_copy.Test(i), !a_bits[i]) << i;
    }
    EXPECT_EQ(flip_copy.Count(), rows - a.Count());
    EXPECT_EQ(Bits(a), a_bits) << "rows=" << rows;
  }
}

TEST(RowMaskBlockTest, ResizeSharesEverySealedBlockWithEarlierCopies) {
  // The ingest pattern: an owner grows past copies it handed out and writes
  // the new rows; each copy keeps its bits, and every block a copy had
  // sealed stays shared.
  Rng rng(0x6E0);
  RowMask owner = RandomMask(kChunkRows + 100, 0.5, rng);
  std::vector<RowMask> copies;
  std::vector<std::vector<bool>> copy_bits;
  for (size_t grow : {size_t{1}, size_t{63}, size_t{64}, size_t{65},
                      kChunkRows - 1, kChunkRows + 1}) {
    copies.push_back(owner);
    copy_bits.push_back(Bits(owner));
    const size_t old_size = owner.size();
    owner.Resize(old_size + grow);
    for (size_t i = old_size & ~size_t{63}; i < owner.size(); ++i) {
      owner.Set(i, i < old_size ? owner.Test(i) : rng.NextBernoulli(0.5));
    }
    const RowMask& last = copies.back();
    for (size_t b = 0; b < last.size() / kChunkRows; ++b) {
      ASSERT_EQ(owner.BlockIdentity(b), last.BlockIdentity(b))
          << "sealed block " << b << " copied after growing by " << grow;
    }
    for (size_t i = 0; i < old_size; ++i) {
      ASSERT_EQ(owner.Test(i), copy_bits.back()[i]) << i;
    }
  }
  for (size_t c = 0; c < copies.size(); ++c) {
    EXPECT_EQ(Bits(copies[c]), copy_bits[c]) << "copy " << c;
  }
}

TEST(RowMaskBlockTest, PrepareWriteMakesTheRangePrivate) {
  Rng rng(0x9E9);
  const RowMask source = RandomMask(3 * kChunkRows + 17, 0.5, rng);
  RowMask copy = source;
  copy.PrepareWrite(kChunkRows + 64, 2 * kChunkRows + 1);
  EXPECT_EQ(copy.BlockIdentity(0), source.BlockIdentity(0));
  EXPECT_NE(copy.BlockIdentity(1), source.BlockIdentity(1));
  EXPECT_NE(copy.BlockIdentity(2), source.BlockIdentity(2));
  EXPECT_EQ(copy.BlockIdentity(3), source.BlockIdentity(3));
  EXPECT_EQ(copy, source);
}

TEST(RowMaskBlockTest, HeapBytesCountsEveryRunItReferences) {
  // EntryBytes charges a cache entry HeapBytes: it may overcount shared
  // runs, never undercount what the mask holds.
  constexpr size_t kWordBytes = kBlockWords * sizeof(uint64_t);
  RowMask m(3 * kChunkRows + 17);
  const size_t spine_only = m.HeapBytes();  // no block is written yet
  EXPECT_LT(spine_only, kWordBytes);
  m.PrepareWrite(0, m.size());  // one run of four blocks
  EXPECT_GE(m.HeapBytes(), spine_only + 4 * kWordBytes);
  EXPECT_LT(m.HeapBytes(), spine_only + 5 * kWordBytes);

  // A copy that rewrites one block holds that block's own run besides the
  // shared one, which it still charges in full.
  RowMask copy = m;
  copy.Set(kChunkRows + 1);
  EXPECT_GE(copy.HeapBytes(), m.HeapBytes() + kWordBytes);
}

}  // namespace
}  // namespace osdp
