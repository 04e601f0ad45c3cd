// Property-based tests: parameterized sweeps (TEST_P) asserting the paper's
// invariants across grids of ε, policies, shapes, and ratios.

#include <gtest/gtest.h>

#include <cmath>

#include "src/attack/exclusion.h"
#include "src/benchdata/dpbench.h"
#include "src/benchdata/sampling.h"
#include "src/common/check.h"
#include "src/common/distributions.h"
#include "src/eval/metrics.h"
#include "src/mech/dawa.h"
#include "src/mech/dawaz.h"
#include "src/mech/laplace.h"
#include "src/mech/osdp_laplace.h"
#include "src/mech/osdp_rr.h"
#include "src/policy/policy.h"
#include "tests/densities.h"
#include "tests/table_rows.h"

namespace osdp {
namespace {

// ============================ ε-indexed privacy certificates ===============

class EpsilonSweep : public ::testing::TestWithParam<double> {};

INSTANTIATE_TEST_SUITE_P(EpsilonGrid, EpsilonSweep,
                         ::testing::Values(0.01, 0.1, 0.5, 1.0, 2.0, 5.0));

TEST_P(EpsilonSweep, OsdpRRIsExactlyEpsilonOsdp) {
  const double eps = GetParam();
  std::vector<bool> sensitive = {true, true, false, false, false};
  SingleRecordMechanism m = MakeOsdpRRModel(sensitive, eps);
  double max_ratio = 0.0;
  EXPECT_TRUE(*SatisfiesOsdpSingleRecord(m, eps, &max_ratio));
  EXPECT_NEAR(max_ratio, std::exp(eps), std::exp(eps) * 1e-9);
  EXPECT_NEAR(*ExclusionAttackPhi(m), eps, 1e-9);
}

TEST_P(EpsilonSweep, OsdpLaplaceDensityRatioBounded) {
  // Theorem 5.2, checked analytically on a grid of outputs for neighboring
  // non-sensitive histograms differing by one count.
  const double eps = GetParam();
  const double b = 1.0 / eps;
  const double c = 3.0;
  const double bound = std::exp(eps) * (1 + 1e-9);
  for (double y = c - 30.0 * b; y <= c; y += b / 8.0) {
    const double px = OneSidedLaplacePdf(y - c, b);
    const double pxp = OneSidedLaplacePdf(y - (c + 1.0), b);
    if (px <= 0.0) continue;
    ASSERT_GT(pxp, 0.0);
    EXPECT_LE(px / pxp, bound) << "y=" << y;
  }
}

TEST_P(EpsilonSweep, OsdpRRReleaseProbabilityIsConsistent) {
  const double eps = GetParam();
  const double p = OsdpRRReleaseProbability(eps);
  EXPECT_GT(p, 0.0);
  EXPECT_LT(p, 1.0);
  // Case 2.2 of Theorem 4.1: suppression ratio 1/(1-p) = e^ε exactly.
  EXPECT_NEAR(1.0 / (1.0 - p), std::exp(eps), std::exp(eps) * 1e-12);
}

TEST_P(EpsilonSweep, OsdpLaplaceL1Invariants) {
  const double eps = GetParam();
  Histogram xns({0, 3, 0, 120, 7, 0, 1, 55});
  Rng rng(static_cast<uint64_t>(eps * 1000) + 1);
  for (int rep = 0; rep < 50; ++rep) {
    Histogram out = *OsdpLaplaceL1(xns, eps, rng);
    ASSERT_EQ(out.size(), xns.size());
    for (size_t i = 0; i < out.size(); ++i) {
      EXPECT_GE(out[i], 0.0);
      if (xns[i] == 0.0) { EXPECT_DOUBLE_EQ(out[i], 0.0); }
    }
  }
}

TEST_P(EpsilonSweep, OsdpRRHistogramDominatedByInput) {
  const double eps = GetParam();
  Histogram xns({10, 0, 250, 33});
  Rng rng(static_cast<uint64_t>(eps * 977) + 3);
  for (int rep = 0; rep < 30; ++rep) {
    Histogram out = *OsdpRRHistogram(xns, eps, rng);
    EXPECT_TRUE(out.DominatedBy(xns));
    EXPECT_DOUBLE_EQ(out[1], 0.0);
  }
}

// ============================ Theorem 5.1 crossover ========================

struct CrossoverCase {
  double n;       // records
  size_t d;       // bins
  double eps;
  bool laplace_should_win;  // n·ε > 2d·e^ε ⟺ Laplace wins (Theorem 5.1)
};

class CrossoverSweep : public ::testing::TestWithParam<CrossoverCase> {};

INSTANTIATE_TEST_SUITE_P(
    Thm51Grid, CrossoverSweep,
    ::testing::Values(
        // n·ε vs 2d·e^ε — chosen far from the boundary so empirical L1
        // comparisons are decisive.
        CrossoverCase{1e6, 16, 1.0, true},    // 1e6 ≫ 87
        CrossoverCase{1e6, 16, 0.1, true},    // 1e5 ≫ 35
        CrossoverCase{100, 512, 1.0, false},  // 100 ≪ 2783
        CrossoverCase{500, 1024, 0.1, false}  // 50 ≪ 2263
        ));

TEST_P(CrossoverSweep, EmpiricalL1MatchesTheorem) {
  const CrossoverCase& c = GetParam();
  // Sanity: the case is on the side of the inequality it claims.
  EXPECT_EQ(c.n * c.eps > 2 * static_cast<double>(c.d) * std::exp(c.eps),
            c.laplace_should_win);
  // Uniform histogram with all records non-sensitive — OsdpRR's best case,
  // so when Laplace still wins the theorem's point is made a fortiori.
  Histogram x(c.d);
  for (size_t i = 0; i < c.d; ++i) {
    x[i] = c.n / static_cast<double>(c.d);
  }
  Rng rng(99);
  double rr_err = 0.0, lap_err = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    rr_err += L1Error(x, *OsdpRRHistogram(x, c.eps, rng));
    lap_err += L1Error(x, *LaplaceMechanism(x, c.eps, rng));
  }
  if (c.laplace_should_win) {
    EXPECT_LT(lap_err, rr_err);
  } else {
    EXPECT_LT(rr_err, lap_err);
  }
}

// ============================ DAWA across datasets =========================

class DatasetSweep : public ::testing::TestWithParam<const char*> {};

INSTANTIATE_TEST_SUITE_P(AllDatasets, DatasetSweep,
                         ::testing::Values("Adult", "Hepth", "Income",
                                           "Nettrace", "Medcost", "Patent",
                                           "Searchlogs"));

TEST_P(DatasetSweep, DawaPartitionTilesDomain) {
  BenchmarkDataset d = *MakeDPBenchDataset(GetParam(), 1024, 5);
  Rng rng(3);
  DawaResult r = *Dawa(d.hist, 1.0, rng);
  ASSERT_FALSE(r.partition.empty());
  EXPECT_EQ(r.partition.front().begin, 0u);
  EXPECT_EQ(r.partition.back().end, d.hist.size());
  for (size_t i = 0; i + 1 < r.partition.size(); ++i) {
    EXPECT_EQ(r.partition[i].end, r.partition[i + 1].begin);
  }
}

TEST_P(DatasetSweep, DawazOutputsValidHistogram) {
  BenchmarkDataset d = *MakeDPBenchDataset(GetParam(), 1024, 5);
  Rng rng(4);
  Histogram xns = *MSampling(d.hist, 0.9, rng);
  Histogram out = *Dawaz(d.hist, xns, 1.0, rng);
  ASSERT_EQ(out.size(), d.hist.size());
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_GE(out[i], 0.0);
    EXPECT_TRUE(std::isfinite(out[i]));
  }
}

TEST_P(DatasetSweep, SamplersPreserveRecordSemantics) {
  BenchmarkDataset d = *MakeDPBenchDataset(GetParam(), 1024, 6);
  Rng rng(5);
  for (double rho : {0.9, 0.25}) {
    Histogram close = *MSampling(d.hist, rho, rng);
    Histogram far = *HiLoSampling(d.hist, rho, rng);
    EXPECT_TRUE(close.DominatedBy(d.hist));
    EXPECT_TRUE(far.DominatedBy(d.hist));
    EXPECT_NEAR(close.Total(), rho * d.hist.Total(), 1.0);
    EXPECT_NEAR(far.Total(), rho * d.hist.Total(), 1.0);
  }
}

// ============================ DAWAz ρ budget sweep =========================

class RhoSweep : public ::testing::TestWithParam<double> {};

INSTANTIATE_TEST_SUITE_P(RhoGrid, RhoSweep,
                         ::testing::Values(0.05, 0.1, 0.25, 0.5, 0.9));

TEST_P(RhoSweep, DawazRunsAtAnyBudgetSplit) {
  DawazOptions opts;
  opts.zero_budget_ratio = GetParam();
  Histogram x(std::vector<double>(256, 0.0));
  for (size_t i = 0; i < 256; i += 8) x[i] = 40.0;
  Rng rng(6);
  Histogram out = *Dawaz(x, x, 1.0, opts, rng);
  EXPECT_EQ(out.size(), x.size());
  for (size_t i = 0; i < out.size(); ++i) EXPECT_GE(out[i], 0.0);
}

// ============================ binomial sampler grid ========================

struct BinomialCase {
  int64_t n;
  double p;
};

class BinomialSweep : public ::testing::TestWithParam<BinomialCase> {};

INSTANTIATE_TEST_SUITE_P(NPGrid, BinomialSweep,
                         ::testing::Values(BinomialCase{5, 0.5},
                                           BinomialCase{100, 0.03},
                                           BinomialCase{100, 0.97},
                                           BinomialCase{5000, 0.4},
                                           BinomialCase{2000000, 0.63}));

TEST_P(BinomialSweep, MomentsMatchAcrossAllCodePaths) {
  const BinomialCase& c = GetParam();
  Rng rng(static_cast<uint64_t>(c.n) * 31 + 7);
  const int reps = 40000;
  double mean = 0.0;
  for (int i = 0; i < reps; ++i) {
    const int64_t k = SampleBinomial(rng, c.n, c.p);
    ASSERT_GE(k, 0);
    ASSERT_LE(k, c.n);
    mean += static_cast<double>(k);
  }
  mean /= reps;
  const double expect = static_cast<double>(c.n) * c.p;
  const double sd = std::sqrt(static_cast<double>(c.n) * c.p * (1 - c.p));
  // 5-sigma band for the mean estimate.
  EXPECT_NEAR(mean, expect, 5.0 * sd / std::sqrt(static_cast<double>(reps)));
}

// ============================ policy algebra over random tables ============

class PolicyAlgebraSweep : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, PolicyAlgebraSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST_P(PolicyAlgebraSweep, MinimumRelaxationLaws) {
  Rng rng(GetParam());
  std::vector<Row> rows;
  for (int i = 0; i < 200; ++i) {
    rows.push_back({Value(static_cast<int64_t>(rng.NextBounded(10))),
                    Value(static_cast<int64_t>(rng.NextBounded(10)))});
  }
  const Table t = TableFromRows(
      Schema({{"a", ValueType::kInt64}, {"b", ValueType::kInt64}}), rows);
  Policy p1 = Policy::SensitiveWhen(
      Predicate::Lt("a", Value(static_cast<int64_t>(rng.NextBounded(9) + 1))));
  Policy p2 = Policy::SensitiveWhen(
      Predicate::Ge("b", Value(static_cast<int64_t>(rng.NextBounded(9)))));
  Policy ab = Policy::MinimumRelaxation(p1, p2);
  Policy ba = Policy::MinimumRelaxation(p2, p1);
  Policy aa = Policy::MinimumRelaxation(p1, p1);
  // Commutativity and idempotence.
  EXPECT_EQ(ab.SensitiveMask(t), ba.SensitiveMask(t));
  EXPECT_EQ(aa.SensitiveMask(t), p1.SensitiveMask(t));
  // P_mr(r) = max(P1(r), P2(r)) pointwise (Definition 3.6).
  const RowMask p1_of_r = p1.NonSensitiveRowMask(t);
  const RowMask p2_of_r = p2.NonSensitiveRowMask(t);
  const RowMask mr_of_r = ab.NonSensitiveRowMask(t);
  for (size_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_EQ(mr_of_r.Test(r), std::max(p1_of_r.Test(r), p2_of_r.Test(r)));
  }
  // The relaxation partial order holds empirically (Theorem 3.2 premise).
  EXPECT_TRUE(ab.IsRelaxationOfOn(p1, t));
  EXPECT_TRUE(ab.IsRelaxationOfOn(p2, t));
}

// ============================ eOSDP ⇒ 2ε OSDP (Theorem 10.1) ==============

TEST(ExtendedOsdpTest, AddRemoveChainGivesTwoEpsilonBound) {
  // Theorem 10.1's proof chains one removal and one addition. We verify the
  // multiplicative bound composes: a mechanism whose likelihood ratio across
  // one add/remove step is ≤ e^ε has ratio ≤ e^{2ε} across a replace step.
  const double eps = 0.6;
  const double one_step = std::exp(eps);
  const double replace_bound = std::exp(2 * eps);
  EXPECT_NEAR(one_step * one_step, replace_bound, replace_bound * 1e-12);
}

}  // namespace
}  // namespace osdp
