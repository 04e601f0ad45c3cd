// Tests for the OSDP primitives: OsdpRR (Algorithm 1), OsdpLaplace
// (Definition 5.2), OsdpLaplaceL1 (Algorithm 2), the hybrid variant, and
// Suppress — including analytic verification of the privacy inequalities.

#include <gtest/gtest.h>

#include "src/common/check.h"

#include <cmath>

#include "src/common/distributions.h"
#include "src/common/stats.h"
#include "src/mech/laplace.h"
#include "src/mech/osdp_laplace.h"
#include "src/mech/osdp_rr.h"
#include "src/mech/suppress.h"
#include "src/policy/policy.h"

namespace osdp {
namespace {

Table PeopleTable(int n_sensitive, int n_non_sensitive) {
  Table t(Schema({{"age", ValueType::kInt64}, {"id", ValueType::kInt64}}));
  int64_t id = 0;
  for (int i = 0; i < n_sensitive; ++i) {
    OSDP_CHECK(t.AppendRow({Value(10), Value(id++)}).ok());  // minors: sensitive
  }
  for (int i = 0; i < n_non_sensitive; ++i) {
    OSDP_CHECK(t.AppendRow({Value(30), Value(id++)}).ok());
  }
  return t;
}

Policy MinorsSensitive() {
  return Policy::SensitiveWhen(Predicate::Le("age", Value(17)), "P_minors");
}

// ---------------------------------------------------------------- OsdpRR ---

TEST(OsdpRRTest, ReleaseProbabilityMatchesPaperTable1) {
  // Paper Table 1: ~63% at ε=1, ~39% at ε=0.5, ~9.5% at ε=0.1.
  EXPECT_NEAR(OsdpRRReleaseProbability(1.0), 0.632, 0.001);
  EXPECT_NEAR(OsdpRRReleaseProbability(0.5), 0.393, 0.001);
  EXPECT_NEAR(OsdpRRReleaseProbability(0.1), 0.095, 0.001);
}

TEST(OsdpRRTest, NeverReleasesSensitiveRecords) {
  Table t = PeopleTable(200, 200);
  Policy p = MinorsSensitive();
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<size_t> released = *OsdpRRSelect(t, p, 2.0, rng);
    for (size_t row : released) {
      EXPECT_TRUE(p.IsNonSensitive(t, row));
    }
  }
}

TEST(OsdpRRTest, ReleasesTrueUnmodifiedRecords) {
  Table t = PeopleTable(5, 50);
  Rng rng(2);
  Table released = *OsdpRRRelease(t, MinorsSensitive(), 1.0, rng);
  for (size_t r = 0; r < released.num_rows(); ++r) {
    // Every released row exists verbatim in the original table.
    const int64_t id = released.Int64Column(1)[r];
    EXPECT_EQ(released.Int64Column(0)[r], t.Int64Column(0)[id]);
    EXPECT_EQ(id, t.Int64Column(1)[id]);
  }
}

TEST(OsdpRRTest, EmpiricalReleaseRateMatchesFormula) {
  Table t = PeopleTable(0, 20000);
  // A dummy sensitive row keeps the policy non-trivial in spirit; the
  // fraction below is computed over the non-sensitive rows only.
  Rng rng(3);
  const double eps = 0.5;
  std::vector<size_t> released = *OsdpRRSelect(t, MinorsSensitive(), eps, rng);
  const double rate =
      static_cast<double>(released.size()) / static_cast<double>(t.num_rows());
  EXPECT_NEAR(rate, OsdpRRReleaseProbability(eps), 0.01);
}

TEST(OsdpRRTest, RejectsNonPositiveEpsilon) {
  Table t = PeopleTable(1, 1);
  Rng rng(4);
  EXPECT_FALSE(OsdpRRSelect(t, MinorsSensitive(), 0.0, rng).ok());
  EXPECT_FALSE(OsdpRRSelect(t, MinorsSensitive(), -1.0, rng).ok());
}

TEST(OsdpRRTest, GenericOverTrajLikeRecords) {
  struct Rec {
    int v;
  };
  std::vector<Rec> records(1000, Rec{1});
  for (int i = 0; i < 500; ++i) records[i].v = -1;
  auto policy = GenericPolicy<Rec>::SensitiveWhen(
      [](const Rec& r) { return r.v < 0; });
  Rng rng(5);
  std::vector<size_t> out = OsdpRRSelectGeneric(records, policy, 1.0, rng);
  for (size_t i : out) EXPECT_GT(records[i].v, 0);
  EXPECT_NEAR(static_cast<double>(out.size()) / 500.0,
              OsdpRRReleaseProbability(1.0), 0.08);
}

TEST(OsdpRRTest, HistogramFormMatchesBinomialMean) {
  Histogram xns({1000, 0, 500, 2000});
  Rng rng(6);
  const double eps = 1.0;
  Histogram acc(4);
  const int reps = 200;
  for (int i = 0; i < reps; ++i) {
    Histogram s = *OsdpRRHistogram(xns, eps, rng);
    EXPECT_DOUBLE_EQ(s[1], 0.0);  // empty bins stay empty
    for (size_t b = 0; b < 4; ++b) {
      EXPECT_LE(s[b], xns[b]);  // a subsample never exceeds the source
      acc[b] += s[b] / reps;
    }
  }
  const double p = OsdpRRReleaseProbability(eps);
  EXPECT_NEAR(acc[0], 1000 * p, 25);
  EXPECT_NEAR(acc[3], 2000 * p, 40);
}

TEST(OsdpRRTest, ExpectedL1ErrorFormula) {
  // Theorem 5.1's error model: sensitive mass + e^{-ε} · non-sensitive mass.
  EXPECT_DOUBLE_EQ(OsdpRRExpectedL1Error(100, 100, 1.0),
                   100 * std::exp(-1.0));
  EXPECT_DOUBLE_EQ(OsdpRRExpectedL1Error(100, 60, 1.0),
                   40 + 60 * std::exp(-1.0));
}

TEST(OsdpRRTest, GuaranteeIsOsdpWithPhiEqualEpsilon) {
  PrivacyGuarantee g = OsdpGuarantee(0.7, "P_x");
  EXPECT_EQ(g.model, PrivacyModel::kOSDP);
  EXPECT_DOUBLE_EQ(g.epsilon, 0.7);
  EXPECT_DOUBLE_EQ(g.exclusion_attack_phi, 0.7);  // Theorem 3.1
}

// ----------------------------------------------------------- OsdpLaplace ---

TEST(OsdpLaplaceTest, NoiseIsOneSided) {
  Histogram xns({10, 20, 0, 5});
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    Histogram noisy = *OsdpLaplace(xns, 1.0, rng);
    for (size_t b = 0; b < xns.size(); ++b) {
      EXPECT_LE(noisy[b], xns[b]);  // all noise mass is negative
    }
  }
}

TEST(OsdpLaplaceTest, MeanOffsetIsMinusScale) {
  Histogram xns({100});
  Rng rng(8);
  const double eps = 0.5;
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) {
    stats.Add((*OsdpLaplace(xns, eps, rng))[0]);
  }
  EXPECT_NEAR(stats.mean(), 100 - 1.0 / eps, 0.05);
}

TEST(OsdpLaplaceTest, VarianceIsOneEighthOfLaplaceMechanism) {
  // Section 5.1: exponential noise has half the variance of Lap at the same
  // scale, and the OSDP sensitivity is 1 vs 2 — overall 1/8 the variance.
  Rng rng(9);
  const double eps = 1.0;
  RunningStats one_sided, two_sided;
  for (int i = 0; i < 300000; ++i) {
    one_sided.Add(SampleOneSidedLaplace(rng, 1.0 / eps));
    two_sided.Add(SampleLaplace(rng, 2.0 / eps));
  }
  EXPECT_NEAR(one_sided.sample_variance() / two_sided.sample_variance(), 0.125,
              0.01);
}

TEST(OsdpLaplaceTest, Theorem52LikelihoodRatio) {
  // Analytic check of the Theorem 5.2 proof: for neighboring x (count c) and
  // x' (count c+1), the output density ratio at any feasible y is ≤ e^ε.
  const double eps = 0.8;
  const double b = 1.0 / eps;
  const double c = 5.0;
  for (double y = c - 12.0; y <= c; y += 0.2) {
    const double p_x = OneSidedLaplacePdf(y - c, b);
    const double p_xp = OneSidedLaplacePdf(y - (c + 1.0), b);
    if (p_x <= 0.0) continue;  // infeasible under x
    ASSERT_GT(p_xp, 0.0);      // range(M(D)) ⊆ range(M(D'))
    EXPECT_LE(p_x / p_xp, std::exp(eps) * (1 + 1e-9));
  }
}

TEST(OsdpLaplaceTest, RejectsNegativeCountsAndBadEpsilon) {
  Rng rng(10);
  EXPECT_FALSE(OsdpLaplace(Histogram(std::vector<double>{-1.0}), 1.0, rng).ok());
  EXPECT_FALSE(OsdpLaplace(Histogram(std::vector<double>{1.0}), 0.0, rng).ok());
}

// --------------------------------------------------------- OsdpLaplaceL1 ---

TEST(OsdpLaplaceL1Test, TrueZerosAlwaysOutputZero) {
  // Algorithm 2 note: bins that were 0 stay 0 (one-sided noise only lowers).
  Histogram xns({0, 0, 50, 0});
  Rng rng(11);
  for (int i = 0; i < 300; ++i) {
    Histogram out = *OsdpLaplaceL1(xns, 1.0, rng);
    EXPECT_DOUBLE_EQ(out[0], 0.0);
    EXPECT_DOUBLE_EQ(out[1], 0.0);
    EXPECT_DOUBLE_EQ(out[3], 0.0);
  }
}

TEST(OsdpLaplaceL1Test, OutputsAreNonNegative) {
  Histogram xns({1, 2, 3});
  Rng rng(12);
  for (int i = 0; i < 300; ++i) {
    Histogram out = *OsdpLaplaceL1(xns, 0.5, rng);
    for (size_t b = 0; b < out.size(); ++b) EXPECT_GE(out[b], 0.0);
  }
}

TEST(OsdpLaplaceL1Test, MedianDebiasCentersLargeCounts) {
  // For counts far above the noise scale the clamp never fires, so the
  // median of the debiased output equals the true count.
  Histogram xns({1000});
  Rng rng(13);
  const double eps = 1.0;
  std::vector<double> outs;
  for (int i = 0; i < 20001; ++i) outs.push_back((*OsdpLaplaceL1(xns, eps, rng))[0]);
  EXPECT_NEAR(Median(std::move(outs)), 1000.0, 0.05);
}

TEST(OsdpLaplaceL1Test, BeatsRawOsdpLaplaceOnL1) {
  // The clamp+debias post-processing should reduce expected L1 error on a
  // histogram with many true zeros.
  Histogram xns(std::vector<double>(64, 0.0));
  for (size_t i = 0; i < 8; ++i) xns[i * 8] = 100.0;
  Rng rng(14);
  double raw_err = 0.0, l1_err = 0.0;
  for (int i = 0; i < 300; ++i) {
    Histogram raw = *OsdpLaplace(xns, 1.0, rng);
    Histogram deb = *OsdpLaplaceL1(xns, 1.0, rng);
    for (size_t b = 0; b < xns.size(); ++b) {
      raw_err += std::abs(raw[b] - xns[b]);
      l1_err += std::abs(deb[b] - xns[b]);
    }
  }
  EXPECT_LT(l1_err, raw_err);
}

// ------------------------------------------------- OsdpLaplaceL1Hybrid -----

TEST(OsdpLaplaceL1HybridTest, ValidatesShapes) {
  Rng rng(15);
  Histogram x({5, 5});
  Histogram xns({3, 3});
  EXPECT_FALSE(
      OsdpLaplaceL1Hybrid(x, Histogram(std::vector<double>{3.0}), {true, false}, 1.0, rng).ok());
  EXPECT_FALSE(OsdpLaplaceL1Hybrid(x, xns, {true}, 1.0, rng).ok());
  // xns must be dominated by x.
  EXPECT_FALSE(
      OsdpLaplaceL1Hybrid(x, Histogram({6, 0}), {true, false}, 1.0, rng).ok());
}

TEST(OsdpLaplaceL1HybridTest, SensitiveBinsUseFullCount) {
  // Sensitive bins are estimated from x (two-sided noise around x_i), not
  // from xns (which is 0 there under a value-based policy).
  Histogram x({1000, 1000});
  Histogram xns({0, 1000});
  std::vector<bool> sens = {true, false};
  Rng rng(16);
  RunningStats s0;
  for (int i = 0; i < 4000; ++i) {
    s0.Add((*OsdpLaplaceL1Hybrid(x, xns, sens, 1.0, rng))[0]);
  }
  EXPECT_NEAR(s0.mean(), 1000.0, 1.0);
}

TEST(OsdpLaplaceL1HybridTest, NonSensitiveBinsUseOneSidedPath) {
  Histogram x({1000, 1000});
  Histogram xns({0, 1000});
  std::vector<bool> sens = {true, false};
  Rng rng(17);
  std::vector<double> outs;
  for (int i = 0; i < 20001; ++i) {
    outs.push_back((*OsdpLaplaceL1Hybrid(x, xns, sens, 1.0, rng))[1]);
  }
  EXPECT_NEAR(Median(std::move(outs)), 1000.0, 0.1);
}

// -------------------------------------------------------------- Suppress ---

TEST(SuppressTest, InfiniteTauReleasesExactly) {
  Histogram xns({3, 0, 7});
  Rng rng(18);
  SuppressOptions opts;
  opts.tau = std::numeric_limits<double>::infinity();
  Histogram out = *Suppress(xns, opts, rng);
  EXPECT_EQ(out.counts(), xns.counts());
}

TEST(SuppressTest, NoiseScaleIsTwoOverTau) {
  Histogram xns({0});
  Rng rng(19);
  SuppressOptions opts;
  opts.tau = 10.0;
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.Add((*Suppress(xns, opts, rng))[0]);
  // Var[Lap(2/τ)] = 2(2/τ)² = 0.08 at τ=10.
  EXPECT_NEAR(stats.mean(), 0.0, 0.01);
  EXPECT_NEAR(stats.sample_variance(), 0.08, 0.005);
}

TEST(SuppressTest, GuaranteeExposesWeakPhi) {
  // Theorem 3.4: φ = τ, i.e. τ/ε times weaker than an OSDP mechanism at ε.
  PrivacyGuarantee g = SuppressGuarantee(100.0, "Phi_P");
  EXPECT_EQ(g.model, PrivacyModel::kPDP);
  EXPECT_DOUBLE_EQ(g.exclusion_attack_phi, 100.0);
}

TEST(SuppressTest, RejectsBadTau) {
  Histogram xns({1});
  Rng rng(20);
  EXPECT_FALSE(Suppress(xns, SuppressOptions{0.0}, rng).ok());
  EXPECT_FALSE(Suppress(xns, SuppressOptions{-3.0}, rng).ok());
}

// ------------------------------------------------------- Laplace baseline --

TEST(LaplaceMechanismTest, UnbiasedWithCorrectVariance) {
  Histogram x({50});
  Rng rng(21);
  const double eps = 1.0;
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) {
    stats.Add((*LaplaceMechanism(x, eps, rng))[0]);
  }
  EXPECT_NEAR(stats.mean(), 50.0, 0.05);
  // Var[Lap(2/ε)] = 2·(2/ε)² = 8.
  EXPECT_NEAR(stats.sample_variance(), 8.0, 0.3);
}

TEST(LaplaceMechanismTest, ExpectedL1Formula) {
  // E L1 = d · sensitivity / ε (the 2d/ε of Theorem 5.1's proof).
  EXPECT_DOUBLE_EQ(LaplaceExpectedL1Error(100, 0.5), 400.0);
  Histogram x(std::vector<double>(256, 10.0));
  Rng rng(22);
  double acc = 0.0;
  const int reps = 400;
  for (int i = 0; i < reps; ++i) {
    Histogram est = *LaplaceMechanism(x, 1.0, rng);
    for (size_t b = 0; b < x.size(); ++b) acc += std::abs(est[b] - x[b]);
  }
  EXPECT_NEAR(acc / reps, LaplaceExpectedL1Error(256, 1.0), 30.0);
}

TEST(LaplaceMechanismTest, ValidatesArguments) {
  Histogram x({1});
  Rng rng(23);
  EXPECT_FALSE(LaplaceMechanism(x, 0.0, rng).ok());
  LaplaceOptions opts;
  opts.sensitivity = -1.0;
  EXPECT_FALSE(LaplaceMechanism(x, 1.0, opts, rng).ok());
}

}  // namespace
}  // namespace osdp
