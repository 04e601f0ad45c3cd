// Tests for the Section 5.2 generic recipe and the additional two-phase DP
// algorithms it extends (AHP, Hierarchical).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/common/check.h"
#include "src/common/distributions.h"
#include "src/eval/metrics.h"
#include "src/mech/ahp.h"
#include "src/mech/dawaz.h"
#include "src/mech/hierarchical.h"
#include "src/mech/laplace.h"
#include "src/mech/recipe.h"
#include "src/mech/two_phase.h"

namespace osdp {
namespace {

Histogram SparseTruth(size_t d, double mass = 400.0) {
  Histogram x(d);
  for (size_t i = 0; i < d; i += 8) x[i] = mass;
  return x;
}

// ----------------------------------------------------------- bin groups ---

TEST(BinGroupsTest, ValidatesTiling) {
  EXPECT_TRUE(ValidateBinGroups({{0, 1}, {2}}, 3).ok());
  EXPECT_FALSE(ValidateBinGroups({{0, 1}}, 3).ok());        // missing bin
  EXPECT_FALSE(ValidateBinGroups({{0, 1}, {1, 2}}, 3).ok()); // overlap
  EXPECT_FALSE(ValidateBinGroups({{0, 3}}, 3).ok());         // out of range
  EXPECT_FALSE(ValidateBinGroups({{0}, {}}, 1).ok());        // empty group
}

TEST(TwoPhaseTest, DawaAdapterExposesContiguousGroups) {
  Histogram x(std::vector<double>(64, 5.0));
  Rng rng(1);
  auto dawa = MakeDawaTwoPhase();
  EXPECT_EQ(dawa->name(), "DAWA");
  TwoPhaseMechanism::Output out = *dawa->Run(x, 1.0, rng);
  EXPECT_EQ(out.estimate.size(), 64u);
  EXPECT_TRUE(ValidateBinGroups(out.groups, 64).ok());
}

// ------------------------------------------------------------------ AHP ---

TEST(AhpTest, OutputShapeAndGroups) {
  Histogram x = SparseTruth(128);
  Rng rng(2);
  TwoPhaseMechanism::Output out = *Ahp(x, 1.0, rng);
  EXPECT_EQ(out.estimate.size(), 128u);
  EXPECT_TRUE(ValidateBinGroups(out.groups, 128).ok());
  for (size_t i = 0; i < out.estimate.size(); ++i) {
    EXPECT_GE(out.estimate[i], 0.0);
  }
}

TEST(AhpTest, GroupsShareEstimates) {
  Histogram x = SparseTruth(64);
  Rng rng(3);
  TwoPhaseMechanism::Output out = *Ahp(x, 1.0, rng);
  for (const auto& group : out.groups) {
    for (uint32_t bin : group) {
      EXPECT_DOUBLE_EQ(out.estimate[bin], out.estimate[group[0]]);
    }
  }
}

TEST(AhpTest, ClustersAreValueBasedNotContiguous) {
  // Bins 0 and 63 have identical counts; everything between differs wildly.
  Histogram x(64);
  x[0] = 1000.0;
  x[63] = 1000.0;
  for (size_t i = 1; i < 63; ++i) x[i] = 10.0 * static_cast<double>(i % 7);
  Rng rng(4);
  TwoPhaseMechanism::Output out = *Ahp(x, 20.0, rng);  // low noise
  // Find the group containing bin 0; with low noise, bin 63 should share it.
  for (const auto& group : out.groups) {
    const bool has0 =
        std::find(group.begin(), group.end(), 0u) != group.end();
    if (has0) {
      EXPECT_NE(std::find(group.begin(), group.end(), 63u), group.end());
    }
  }
}

TEST(AhpTest, BeatsLaplaceOnSparseData) {
  Histogram x = SparseTruth(1024, 2000.0);
  Rng rng(5);
  double ahp_err = 0.0, lap_err = 0.0;
  for (int rep = 0; rep < 10; ++rep) {
    ahp_err += MeanRelativeError(x, Ahp(x, 0.1, rng)->estimate);
    lap_err += MeanRelativeError(x, *LaplaceMechanism(x, 0.1, rng));
  }
  EXPECT_LT(ahp_err, lap_err);
}

TEST(AhpTest, ValidatesArguments) {
  Histogram x({1, 2});
  Rng rng(6);
  EXPECT_FALSE(Ahp(x, 0.0, rng).ok());
}

// --------------------------------------------------------- Hierarchical ---

// The hierarchical release with the downward pass splitting each residual
// into equal shares instead of by child variance — the reference the
// variance-weighted split is compared against. Same tree, same noise draws
// in the same (breadth-first) order and same upward pass as
// HierarchicalRelease, and no clamping, so with one seed the two differ only
// in the split rule.
Histogram EqualSplitHierarchical(const Histogram& x, double epsilon,
                                 int fanout, Rng& rng) {
  struct Node {
    size_t begin, end;
    std::vector<size_t> children;
    double noisy = 0.0, estimate = 0.0;
  };
  const size_t d = x.size();
  const size_t k = static_cast<size_t>(fanout);
  std::vector<Node> arena{{0, d, {}}};
  for (size_t idx = 0; idx < arena.size(); ++idx) {
    const size_t begin = arena[idx].begin, end = arena[idx].end;
    if (end - begin <= 1) continue;
    const size_t child_width = (end - begin + k - 1) / k;
    for (size_t b = begin; b < end; b += child_width) {
      arena.push_back({b, std::min(end, b + child_width), {}});
      arena[idx].children.push_back(arena.size() - 1);
    }
  }
  int height = 1;
  for (size_t idx = 0; !arena[idx].children.empty();) {
    idx = arena[idx].children[0];
    ++height;
  }
  const double scale = 2.0 * height / epsilon;
  std::vector<double> prefix(d + 1, 0.0);
  for (size_t i = 0; i < d; ++i) prefix[i + 1] = prefix[i] + x[i];
  for (Node& node : arena) {
    node.noisy = (prefix[node.end] - prefix[node.begin]) +
                 SampleLaplace(rng, scale);
  }
  const double own_var = scale * scale * 2.0;
  std::vector<double> variance(arena.size(), own_var);
  for (size_t idx = arena.size(); idx-- > 0;) {
    Node& node = arena[idx];
    if (node.children.empty()) {
      node.estimate = node.noisy;
      continue;
    }
    double child_sum = 0.0, child_var = 0.0;
    for (size_t c : node.children) {
      child_sum += arena[c].estimate;
      child_var += variance[c];
    }
    const double w = child_var / (own_var + child_var);
    node.estimate = w * node.noisy + (1.0 - w) * child_sum;
    variance[idx] = own_var * child_var / (own_var + child_var);
  }
  for (const Node& node : arena) {
    if (node.children.empty()) continue;
    double child_sum = 0.0;
    for (size_t c : node.children) child_sum += arena[c].estimate;
    const double share = (node.estimate - child_sum) /
                         static_cast<double>(node.children.size());
    for (size_t c : node.children) arena[c].estimate += share;
  }
  Histogram estimate(d);
  for (const Node& node : arena) {
    if (node.children.empty()) estimate[node.begin] = node.estimate;
  }
  return estimate;
}

TEST(HierarchicalTest, OutputShapeAndSingletonGroups) {
  Histogram x = SparseTruth(100);  // deliberately not a power of the fanout
  Rng rng(7);
  TwoPhaseMechanism::Output out = *MakeHierarchicalTwoPhase()->Run(x, 1.0, rng);
  EXPECT_EQ(out.estimate.size(), 100u);
  EXPECT_TRUE(ValidateBinGroups(out.groups, 100).ok());
  for (const auto& group : out.groups) EXPECT_EQ(group.size(), 1u);
}

TEST(HierarchicalTest, ConsistencyImprovesTotalEstimate) {
  // The whole point of constrained inference: the root-level total is far
  // more accurate than the sum of d independent Laplace draws.
  Histogram x(std::vector<double>(256, 20.0));
  Rng rng(8);
  const double eps = 0.5;
  double hier_total_err = 0.0, lap_total_err = 0.0;
  for (int rep = 0; rep < 20; ++rep) {
    HierarchicalOptions opts;
    opts.clamp_non_negative = false;  // isolate the inference effect
    Histogram h = *HierarchicalRelease(x, eps, opts, rng);
    Histogram l = *LaplaceMechanism(x, eps, rng);
    hier_total_err += std::abs(h.Total() - x.Total());
    lap_total_err += std::abs(l.Total() - x.Total());
  }
  EXPECT_LT(hier_total_err, lap_total_err);
}

TEST(HierarchicalTest, ValidatesArguments) {
  Histogram x({1, 2});
  Rng rng(9);
  EXPECT_FALSE(HierarchicalRelease(x, 0.0, HierarchicalOptions{}, rng).ok());
  HierarchicalOptions opts;
  opts.fanout = 1;
  EXPECT_FALSE(HierarchicalRelease(x, 1.0, opts, rng).ok());
}

TEST(HierarchicalTest, EqualSplitMatchesWeightedOnBalancedTree) {
  // With d a power of the fanout every subtree is balanced, all sibling
  // variances are equal, and the two split rules must coincide exactly.
  Histogram x(std::vector<double>(64, 12.0));
  HierarchicalOptions weighted;
  weighted.clamp_non_negative = false;
  Rng rng_w(41), rng_e(41);  // identical noise streams
  Histogram hw = *HierarchicalRelease(x, 0.7, weighted, rng_w);
  Histogram he = EqualSplitHierarchical(x, 0.7, weighted.fanout, rng_e);
  for (size_t i = 0; i < x.size(); ++i) EXPECT_DOUBLE_EQ(hw[i], he[i]);
}

TEST(HierarchicalTest, WeightedSplitBeatsEqualOnUnbalancedTrees) {
  // Regression for the downward pass: splitting the residual equally is only
  // variance-optimal when all sibling subtrees carry equal variance. On
  // non-power-of-fanout domains the tree is ragged (leaf children sit next
  // to deep subtrees), and the variance-weighted split — the exact
  // least-squares projection — gives strictly lower error. Fanout 2
  // maximizes sibling variance contrast; paired noise streams isolate the
  // split rule's effect, and fixed seeds make the comparison deterministic.
  // The squared-error gap is the theory-backed one (GLS minimizes every
  // leaf's variance); the L1 gap is smaller because the weighted correction
  // also reshapes the error distribution, but both favour weighting here.
  HierarchicalOptions weighted;
  weighted.fanout = 2;
  weighted.clamp_non_negative = false;
  double weighted_l1 = 0.0, equal_l1 = 0.0;
  double weighted_l2 = 0.0, equal_l2 = 0.0;
  for (size_t d : {size_t{9}, size_t{17}, size_t{33}, size_t{37},
                   size_t{127}}) {
    Histogram x(d);
    for (size_t i = 0; i < d; ++i) {
      x[i] = 30.0 + 10.0 * static_cast<double>(i % 5);
    }
    for (int rep = 0; rep < 4000; ++rep) {
      Rng rng_w(1000 + rep), rng_e(1000 + rep);
      Histogram hw = *HierarchicalRelease(x, 0.5, weighted, rng_w);
      Histogram he = EqualSplitHierarchical(x, 0.5, 2, rng_e);
      for (size_t i = 0; i < d; ++i) {
        weighted_l1 += std::abs(hw[i] - x[i]);
        equal_l1 += std::abs(he[i] - x[i]);
        weighted_l2 += (hw[i] - x[i]) * (hw[i] - x[i]);
        equal_l2 += (he[i] - x[i]) * (he[i] - x[i]);
      }
    }
  }
  EXPECT_LT(weighted_l1, equal_l1);
  EXPECT_LT(weighted_l2, equal_l2);
}

TEST(HierarchicalTest, FanoutVariantsAllTile) {
  Histogram x = SparseTruth(96);
  for (int fanout : {2, 4, 16}) {
    HierarchicalOptions opts;
    opts.fanout = fanout;
    Rng rng(10 + fanout);
    TwoPhaseMechanism::Output out =
        *MakeHierarchicalTwoPhase(opts)->Run(x, 1.0, rng);
    EXPECT_EQ(out.estimate.size(), 96u) << fanout;
    EXPECT_TRUE(ValidateBinGroups(out.groups, 96).ok()) << fanout;
  }
}

// ----------------------------------------------------------- the recipe ---

TEST(RecipeTest, DawaRecipeIsDawazBitForBit) {
  // DAWAz is the recipe on DAWA's two-phase form: for equal seeds the two
  // draw the same noise and release the same bits, under either detector.
  // The zero holes put detected-empty bins inside DAWA buckets, so every run
  // both zeroes bins and rescales their bucket's survivors.
  Histogram x(128), xns(128);
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = i % 4 == 0 ? 0.0 : 30.0;
    xns[i] = i % 16 == 1 ? 0.0 : x[i];
  }
  for (DawazZeroDetector detector :
       {DawazZeroDetector::kOsdpRR, DawazZeroDetector::kOsdpLaplaceL1}) {
    DawazOptions opts;
    opts.zero_budget_ratio = 0.5;
    opts.detector = detector;
    for (uint64_t seed = 0; seed < 20; ++seed) {
      Rng dawaz_rng(seed), recipe_rng(seed);
      const Histogram dawaz = *Dawaz(x, xns, 2.0, opts, dawaz_rng);
      const Histogram recipe =
          *ApplyOsdpRecipe(*MakeDawaTwoPhase(), x, xns, 2.0, opts, recipe_rng);
      ASSERT_EQ(dawaz.counts(), recipe.counts())
          << static_cast<int>(detector) << " seed " << seed;
    }
  }
}

TEST(RecipeTest, AhpzAndHierarchicalzRun) {
  Histogram x = SparseTruth(256);
  Rng rng(12);
  for (auto* make : {+[]() { return MakeAhpTwoPhase(); },
                     +[]() { return MakeHierarchicalTwoPhase(
                                 HierarchicalOptions{}); }}) {
    Histogram out =
        *ApplyOsdpRecipe(*make(), x, x, 1.0, RecipeOptions{}, rng);
    EXPECT_EQ(out.size(), x.size());
  }
}

TEST(RecipeTest, RecipeImprovesBaseOnSparseData) {
  // Figure-9 shape generalized: the recipe's zero detection should help any
  // two-phase base algorithm on sparse data with most records non-sensitive.
  Histogram x = SparseTruth(512);
  Rng rng(13);
  auto base = MakeAhpTwoPhase();
  double base_err = 0.0, recipe_err = 0.0;
  for (int rep = 0; rep < 10; ++rep) {
    base_err += MeanRelativeError(x, base->Run(x, 1.0, rng)->estimate);
    recipe_err += MeanRelativeError(
        x, *ApplyOsdpRecipe(*base, x, x, 1.0, RecipeOptions{}, rng));
  }
  EXPECT_LT(recipe_err, base_err);
}

TEST(RecipeTest, MechanismWrapperNamesAndGuarantees) {
  auto ahpz = MakeRecipeMechanism(MakeAhpTwoPhase());
  EXPECT_EQ(ahpz->name(), "AHPz");
  EXPECT_EQ(ahpz->Guarantee(1.0).model, PrivacyModel::kOSDP);
  auto hz = MakeRecipeMechanism(MakeHierarchicalTwoPhase());
  EXPECT_EQ(hz->name(), "Hierarchicalz");
  Histogram x = SparseTruth(64);
  Rng rng(14);
  EXPECT_TRUE(ahpz->Run(x, x, 1.0, rng).ok());
  EXPECT_TRUE(hz->Run(x, x, 1.0, rng).ok());
}

TEST(RecipeTest, ValidatesInputs) {
  Rng rng(15);
  auto dawa = MakeDawaTwoPhase();
  Histogram x({5, 5});
  EXPECT_FALSE(
      ApplyOsdpRecipe(*dawa, x, Histogram({6, 0}), 1.0, RecipeOptions{}, rng)
          .ok());
  RecipeOptions opts;
  opts.zero_budget_ratio = 0.0;
  EXPECT_FALSE(ApplyOsdpRecipe(*dawa, x, x, 1.0, opts, rng).ok());
  EXPECT_FALSE(ApplyOsdpRecipe(*dawa, x, x, 0.0, RecipeOptions{}, rng).ok());
}

}  // namespace
}  // namespace osdp
