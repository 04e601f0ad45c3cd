// Tests for AGrid (2-D adaptive grid) and its recipe extension AGridz.

#include <gtest/gtest.h>

#include <cmath>

#include "src/common/check.h"
#include "src/eval/metrics.h"
#include "src/mech/agrid.h"
#include "src/mech/laplace.h"
#include "src/mech/recipe.h"

namespace osdp {
namespace {

// A 2-D histogram with a hotspot block and an empty remainder (flattened).
Histogram HotspotGrid(size_t rows, size_t cols, double mass = 500.0) {
  Histogram x(rows * cols);
  for (size_t r = 0; r < rows / 4; ++r) {
    for (size_t c = 0; c < cols / 4; ++c) {
      x[r * cols + c] = mass;
    }
  }
  return x;
}

AGridOptions Opts(size_t rows, size_t cols) {
  AGridOptions o;
  o.rows = rows;
  o.cols = cols;
  return o;
}

TEST(AGridTest, OutputTilesDomain) {
  Histogram x = HotspotGrid(32, 24);
  Rng rng(1);
  TwoPhaseMechanism::Output out = *AGrid(x, 1.0, Opts(32, 24), rng);
  EXPECT_EQ(out.estimate.size(), x.size());
  EXPECT_TRUE(ValidateBinGroups(out.groups, x.size()).ok());
  for (size_t i = 0; i < out.estimate.size(); ++i) {
    EXPECT_GE(out.estimate[i], 0.0);
  }
}

TEST(AGridTest, AdaptiveRefinementFocusesOnDenseCells) {
  // Dense regions should end up in smaller groups (finer cells) than empty
  // regions; compare the average group size containing the hotspot vs not.
  // Low total mass keeps the coarse grid coarse, so phase 2 has room to
  // subdivide adaptively.
  Histogram x = HotspotGrid(64, 64, 5.0);
  Rng rng(2);
  TwoPhaseMechanism::Output out = *AGrid(x, 0.5, Opts(64, 64), rng);
  double dense_sizes = 0.0, dense_n = 0.0, empty_sizes = 0.0, empty_n = 0.0;
  for (const auto& group : out.groups) {
    bool dense = false;
    for (uint32_t bin : group) dense |= x[bin] > 0.0;
    if (dense) {
      dense_sizes += static_cast<double>(group.size());
      dense_n += 1;
    } else {
      empty_sizes += static_cast<double>(group.size());
      empty_n += 1;
    }
  }
  ASSERT_GT(dense_n, 0.0);
  ASSERT_GT(empty_n, 0.0);
  EXPECT_LT(dense_sizes / dense_n, empty_sizes / empty_n);
}

TEST(AGridTest, BeatsLaplaceOnConcentrated2D) {
  Histogram x = HotspotGrid(64, 24, 800.0);
  Rng rng(3);
  double agrid_err = 0.0, lap_err = 0.0;
  for (int rep = 0; rep < 10; ++rep) {
    agrid_err += MeanRelativeError(x, AGrid(x, 0.1, Opts(64, 24), rng)->estimate);
    lap_err += MeanRelativeError(x, *LaplaceMechanism(x, 0.1, rng));
  }
  EXPECT_LT(agrid_err, lap_err);
}

TEST(AGridTest, ValidatesArguments) {
  Histogram x(12);
  Rng rng(4);
  EXPECT_FALSE(AGrid(x, 0.0, Opts(3, 4), rng).ok());
  EXPECT_FALSE(AGrid(x, 1.0, Opts(3, 5), rng).ok());  // shape mismatch
}

TEST(AGridTest, TinyDomainsStillWork) {
  Histogram x({1, 2, 3, 4});
  Rng rng(5);
  TwoPhaseMechanism::Output out = *AGrid(x, 1.0, Opts(2, 2), rng);
  EXPECT_TRUE(ValidateBinGroups(out.groups, 4).ok());
}

TEST(AGridzTest, RecipeExtensionRunsAndPreservesZeros) {
  Histogram x = HotspotGrid(32, 32);
  Rng rng(6);
  auto agridz = MakeRecipeMechanism(MakeAGridTwoPhase(Opts(32, 32)));
  EXPECT_EQ(agridz->name(), "AGridz");
  RecipeOptions ropts;
  ropts.zero_budget_ratio = 0.5;
  Histogram out = *ApplyOsdpRecipe(*MakeAGridTwoPhase(Opts(32, 32)), x, x,
                                   8.0, ropts, rng);
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i] == 0.0) { EXPECT_DOUBLE_EQ(out[i], 0.0); }
  }
}

TEST(AGridzTest, ZeroDetectionHelpsOnSparse2D) {
  Histogram x = HotspotGrid(48, 48, 300.0);
  Rng rng(7);
  auto base = MakeAGridTwoPhase(Opts(48, 48));
  double base_err = 0.0, z_err = 0.0;
  for (int rep = 0; rep < 10; ++rep) {
    base_err += MeanRelativeError(x, base->Run(x, 1.0, rng)->estimate);
    z_err += MeanRelativeError(
        x, *ApplyOsdpRecipe(*base, x, x, 1.0, RecipeOptions{}, rng));
  }
  EXPECT_LT(z_err, base_err);
}

}  // namespace
}  // namespace osdp
