// Tests for DAWA, DAWAz (Algorithm 3), and the uniform mechanism suite.

#include <gtest/gtest.h>

#include "src/common/check.h"

#include <algorithm>
#include <cmath>

#include "src/common/random.h"
#include "src/eval/metrics.h"
#include "src/mech/dawa.h"
#include "src/mech/dawaz.h"
#include "src/mech/histogram_mechanism.h"
#include "src/mech/interval_costs.h"
#include "src/mech/laplace.h"

namespace osdp {
namespace {

// Checks that buckets tile [0, d) contiguously without gaps or overlaps.
void ExpectValidPartition(const std::vector<DawaBucket>& buckets, size_t d) {
  ASSERT_FALSE(buckets.empty());
  EXPECT_EQ(buckets.front().begin, 0u);
  EXPECT_EQ(buckets.back().end, d);
  for (size_t i = 0; i + 1 < buckets.size(); ++i) {
    EXPECT_EQ(buckets[i].end, buckets[i + 1].begin);
    EXPECT_LT(buckets[i].begin, buckets[i].end);
  }
}

// ---------------------------------------------------- OptimalL1Partition ---

TEST(DawaPartitionTest, UniformDataMergesIntoOneBucket) {
  std::vector<double> x(64, 10.0);
  auto buckets = OptimalL1Partition(x, /*bucket_charge=*/1.0,
                                    DawaPositions::kEvery);
  ExpectValidPartition(buckets, 64);
  EXPECT_EQ(buckets.size(), 1u);
}

TEST(DawaPartitionTest, SpikyDataStaysFine) {
  // Large per-bin differences make merging expensive relative to the charge.
  std::vector<double> x(16);
  for (size_t i = 0; i < x.size(); ++i) x[i] = (i % 2 == 0) ? 0.0 : 1000.0;
  auto buckets =
      OptimalL1Partition(x, /*bucket_charge=*/1.0, DawaPositions::kEvery);
  ExpectValidPartition(buckets, 16);
  EXPECT_EQ(buckets.size(), 16u);
}

TEST(DawaPartitionTest, PiecewiseConstantFindsTheBreak) {
  std::vector<double> x(32, 5.0);
  for (size_t i = 16; i < 32; ++i) x[i] = 50.0;
  auto buckets =
      OptimalL1Partition(x, /*bucket_charge=*/2.0, DawaPositions::kEvery);
  ExpectValidPartition(buckets, 32);
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets[0].end, 16u);
}

TEST(DawaPartitionTest, HalfOverlapModeStillTiles) {
  std::vector<double> x(48, 1.0);
  x[13] = 400.0;
  auto buckets =
      OptimalL1Partition(x, 1.0, DawaPositions::kHalfOverlap);
  ExpectValidPartition(buckets, 48);
}

TEST(DawaPartitionTest, HugeChargeForcesSingleBucketEvenWhenSpiky) {
  std::vector<double> x(16);
  for (size_t i = 0; i < x.size(); ++i) x[i] = static_cast<double>(i);
  auto buckets = OptimalL1Partition(x, 1e9, DawaPositions::kEvery);
  EXPECT_EQ(buckets.size(), 1u);
}

// ------------------------------------------------- interval-cost engine ---

// Integer-valued random data in one of three shapes. Integer values matter:
// candidate intervals have power-of-two lengths, so every interval mean is an
// exactly-representable dyadic rational and both the naive scan and the
// engine compute the deviation exactly — which is what lets the tests below
// demand bit-identical results rather than tolerances. (Real histograms are
// counts, so the integer domain is the one that matters.)
std::vector<double> RandomIntegerData(Rng& rng, size_t d, int shape) {
  std::vector<double> x(d);
  switch (shape) {
    case 0:  // uniform: one flat level
      for (auto& v : x) v = static_cast<double>(rng.NextBounded(1 << 20));
      if (d > 1) std::fill(x.begin(), x.end(), x[0]);
      break;
    case 1:  // spiky: sparse large spikes over zeros (Adult-like)
      for (auto& v : x) {
        v = rng.NextBernoulli(0.1)
                ? static_cast<double>(rng.NextBounded(1 << 20))
                : 0.0;
      }
      break;
    default:  // piecewise constant with random segment levels (Nettrace-like)
      for (size_t i = 0; i < d;) {
        const size_t seg = std::min(d - i, 1 + rng.NextBounded(d / 4 + 1));
        const double level = static_cast<double>(rng.NextBounded(1 << 16));
        for (size_t j = 0; j < seg; ++j) x[i + j] = level;
        i += seg;
      }
      break;
  }
  return x;
}

TEST(IntervalCostEngineTest, DeviationMatchesDirectScan) {
  Rng rng(101);
  for (int iter = 0; iter < 20; ++iter) {
    const size_t d = 1 + rng.NextBounded(300);
    const std::vector<double> x = RandomIntegerData(rng, d, iter % 3);
    const IntervalCostEngine engine(x);
    ASSERT_EQ(engine.size(), d);
    for (size_t len = 1; len <= d; len <<= 1) {
      for (size_t b = 0; b + len <= d; ++b) {
        double sum = 0.0;
        for (size_t i = b; i < b + len; ++i) sum += x[i];
        const double mean = sum / static_cast<double>(len);
        double dev = 0.0;
        for (size_t i = b; i < b + len; ++i) dev += std::abs(x[i] - mean);
        ASSERT_EQ(engine.Deviation(b, b + len), dev)
            << "d=" << d << " len=" << len << " b=" << b;
        ASSERT_EQ(engine.Sum(b, b + len), sum);
      }
    }
  }
}

TEST(IntervalCostEngineTest, HandlesNonIntegerDataFinitely) {
  // No exactness claim for arbitrary reals — just well-defined finite output
  // close to the direct scan (the Dawa noisy path feeds such data).
  Rng rng(103);
  std::vector<double> x(200);
  for (auto& v : x) v = rng.NextDouble() * 100.0 - 50.0;
  const IntervalCostEngine engine(x);
  for (size_t len = 1; len <= 128; len <<= 1) {
    for (size_t b = 0; b + len <= x.size(); b += 7) {
      double sum = 0.0;
      for (size_t i = b; i < b + len; ++i) sum += x[i];
      const double mean = sum / static_cast<double>(len);
      double dev = 0.0;
      for (size_t i = b; i < b + len; ++i) dev += std::abs(x[i] - mean);
      EXPECT_NEAR(engine.Deviation(b, b + len), dev, 1e-9 * (1.0 + dev));
    }
  }
}

TEST(IntervalCostEngineDeathTest, RejectsNonPowerOfTwoLengthInRelease) {
  // These preconditions used to be DCHECKs — compiled out under NDEBUG, so a
  // Release-build caller passing a non-power-of-two length silently indexed
  // the wrong level via ctz (len=6 reads the len=2 table; len=3 reads the
  // unstored level 0) and got a wrong partition cost back. They are hard
  // OSDP_CHECKs now; this test fails at the pre-fix commit in Release.
  const std::vector<double> x(16, 1.0);
  const IntervalCostEngine engine(x);
  EXPECT_DEATH(engine.Deviation(0, 3), "power of two");
  EXPECT_DEATH(engine.Deviation(0, 6), "power of two");
  EXPECT_DEATH(engine.Deviation(4, 4), "out of range");
  EXPECT_DEATH(engine.Deviation(0, 32), "out of range");
}

// The tentpole property test: the engine-backed DP must be *bit-identical*
// to the naive reference DP — same optimal cost, same buckets — across
// domain sizes up to 4096, both position modes, all three data shapes.
TEST(DawaPartitionPropertyTest, EngineMatchesNaiveBitIdentical) {
  Rng rng(20200417);  // ICDE 2020 presentation date
  const double charges[] = {0.5, 1.0, 2.0, 64.0, 4096.0};
  std::vector<size_t> domains = {1, 2, 3, 17, 64, 100, 255, 256,
                                 257, 1000, 1024, 2048, 4095, 4096};
  for (size_t d : domains) {
    for (int shape = 0; shape < 3; ++shape) {
      const std::vector<double> x = RandomIntegerData(rng, d, shape);
      const double charge =
          charges[rng.NextBounded(sizeof(charges) / sizeof(charges[0]))];
      for (DawaPositions pos :
           {DawaPositions::kEvery, DawaPositions::kHalfOverlap}) {
        const L1PartitionSolution naive =
            SolveL1Partition(x, charge, pos, DawaCostImpl::kNaive);
        const L1PartitionSolution engine =
            SolveL1Partition(x, charge, pos, DawaCostImpl::kEngine);
        ASSERT_EQ(naive.cost, engine.cost)
            << "d=" << d << " shape=" << shape << " charge=" << charge
            << " pos=" << static_cast<int>(pos);
        ASSERT_EQ(naive.buckets.size(), engine.buckets.size());
        for (size_t i = 0; i < naive.buckets.size(); ++i) {
          ASSERT_EQ(naive.buckets[i].begin, engine.buckets[i].begin);
          ASSERT_EQ(naive.buckets[i].end, engine.buckets[i].end);
        }
      }
    }
  }
}

TEST(DawaPartitionPropertyTest, AutoImplMatchesExplicitImpls) {
  // kAuto must pick one of the two bit-identical implementations, never a
  // third behaviour.
  Rng rng(77);
  const std::vector<double> x = RandomIntegerData(rng, 2048, 1);
  const L1PartitionSolution a =
      SolveL1Partition(x, 8.0, DawaPositions::kEvery, DawaCostImpl::kAuto);
  const L1PartitionSolution n =
      SolveL1Partition(x, 8.0, DawaPositions::kEvery, DawaCostImpl::kNaive);
  EXPECT_EQ(a.cost, n.cost);
  ASSERT_EQ(a.buckets.size(), n.buckets.size());
  for (size_t i = 0; i < a.buckets.size(); ++i) {
    EXPECT_EQ(a.buckets[i].begin, n.buckets[i].begin);
    EXPECT_EQ(a.buckets[i].end, n.buckets[i].end);
  }
}

// ------------------------------------------------------------------ DAWA ---

TEST(DawaTest, OutputShapeAndPartitionValid) {
  Histogram x(std::vector<double>(128, 3.0));
  Rng rng(1);
  DawaResult r = *Dawa(x, 1.0, rng);
  EXPECT_EQ(r.estimate.size(), 128u);
  ExpectValidPartition(r.partition, 128);
}

TEST(DawaTest, SmoothDataBeatsLaplace) {
  // A sorted/smooth histogram (Nettrace-like) is DAWA's best case.
  std::vector<double> counts(1024);
  for (size_t i = 0; i < counts.size(); ++i) {
    counts[i] = 5000.0 / (1.0 + static_cast<double>(i));
  }
  Histogram x(counts);
  Rng rng(2);
  double dawa_err = 0.0, lap_err = 0.0;
  for (int rep = 0; rep < 10; ++rep) {
    dawa_err += L1Error(x, Dawa(x, 0.1, rng)->estimate);
    lap_err += L1Error(x, *LaplaceMechanism(x, 0.1, rng));
  }
  EXPECT_LT(dawa_err, lap_err);
}

TEST(DawaTest, ValidatesArguments) {
  Histogram x({1, 2});
  Rng rng(3);
  EXPECT_FALSE(Dawa(x, 0.0, rng).ok());
  DawaOptions opts;
  opts.partition_budget_ratio = 1.5;
  EXPECT_FALSE(Dawa(x, 1.0, opts, rng).ok());
  opts.partition_budget_ratio = 0.0;
  EXPECT_FALSE(Dawa(x, 1.0, opts, rng).ok());
}

TEST(DawaTest, ClampOptionControlsNegatives) {
  Histogram x(std::vector<double>(32, 0.0));
  DawaOptions opts;
  opts.clamp_non_negative = true;
  Rng rng(4);
  for (int rep = 0; rep < 50; ++rep) {
    DawaResult r = *Dawa(x, 0.5, opts, rng);
    for (size_t i = 0; i < r.estimate.size(); ++i) {
      EXPECT_GE(r.estimate[i], 0.0);
    }
  }
}

TEST(DawaTest, EstimateIsConstantWithinBuckets) {
  Histogram x(std::vector<double>(64, 7.0));
  Rng rng(5);
  DawaResult r = *Dawa(x, 1.0, rng);
  for (const DawaBucket& b : r.partition) {
    for (size_t i = b.begin + 1; i < b.end; ++i) {
      EXPECT_DOUBLE_EQ(r.estimate[i], r.estimate[b.begin]);
    }
  }
}

TEST(DawaTest, GuaranteeIsDp) {
  PrivacyGuarantee g = DpGuarantee(0.4);
  EXPECT_EQ(g.model, PrivacyModel::kDP);
  EXPECT_DOUBLE_EQ(g.exclusion_attack_phi, 0.4);
}

// ----------------------------------------------------------------- DAWAz ---

Histogram SparseTruth(size_t d) {
  Histogram x(d);
  for (size_t i = 0; i < d; i += 16) x[i] = 500.0;
  return x;
}

TEST(DawazTest, ValidatesInputs) {
  Rng rng(6);
  Histogram x({5, 5});
  EXPECT_FALSE(Dawaz(x, Histogram(std::vector<double>{1.0}), 1.0, rng).ok());          // size
  EXPECT_FALSE(Dawaz(x, Histogram({6, 0}), 1.0, rng).ok());         // dominance
  EXPECT_FALSE(Dawaz(x, Histogram({1, 1}), 0.0, rng).ok());         // epsilon
  DawazOptions opts;
  opts.zero_budget_ratio = 1.0;
  EXPECT_FALSE(Dawaz(x, Histogram({1, 1}), 1.0, opts, rng).ok());   // rho
}

TEST(DawazTest, DetectedZerosAreZeroInOutput) {
  // With xns == x (all records non-sensitive) and large ε, the OsdpRR zero
  // detector sees every truly-empty bin as empty — those must output 0.
  Histogram x = SparseTruth(128);
  Rng rng(7);
  DawazOptions opts;
  opts.zero_budget_ratio = 0.5;  // high detector budget for the test
  for (int rep = 0; rep < 20; ++rep) {
    Histogram out = *Dawaz(x, x, 8.0, opts, rng);
    for (size_t i = 0; i < x.size(); ++i) {
      if (x[i] == 0.0) { EXPECT_DOUBLE_EQ(out[i], 0.0); }
    }
  }
}

TEST(DawazTest, BeatsDawaOnSparseDataWithManyNonSensitive) {
  // The headline effect (Figure 9): zero detection wins on sparse data when
  // nearly everything is non-sensitive.
  Histogram x = SparseTruth(512);
  Histogram xns = x;  // 99%+ non-sensitive regime
  Rng rng(8);
  double dawaz_err = 0.0, dawa_err = 0.0;
  for (int rep = 0; rep < 10; ++rep) {
    dawaz_err += MeanRelativeError(x, *Dawaz(x, xns, 0.5, rng));
    dawa_err += MeanRelativeError(x, Dawa(x, 0.5, rng)->estimate);
  }
  EXPECT_LT(dawaz_err, dawa_err);
}

TEST(DawazTest, LaplaceL1DetectorAlsoWorks) {
  Histogram x = SparseTruth(64);
  Rng rng(9);
  DawazOptions opts;
  opts.detector = DawazZeroDetector::kOsdpLaplaceL1;
  Histogram out = *Dawaz(x, x, 1.0, opts, rng);
  EXPECT_EQ(out.size(), x.size());
}

TEST(DawazTest, MassReallocationPreservesBucketTotals) {
  // Zeroing bins inside a bucket must not change the bucket's total mass
  // (as long as at least one bin survives).
  Histogram x(std::vector<double>(32, 10.0));
  x[3] = 0.0;
  Rng rng(10);
  // Force deterministic single-bucket behaviour by using a uniform x and a
  // huge ε (negligible noise).
  DawazOptions opts;
  opts.zero_budget_ratio = 0.5;
  Histogram out = *Dawaz(x, x, 100.0, opts, rng);
  EXPECT_NEAR(out.Total(), x.Total(), 1.0);
}

// ------------------------------------------------------ mechanism suite ----

TEST(HistogramMechanismTest, StandardSuiteHasPaperSixAlgorithms) {
  auto suite = StandardSuite();
  ASSERT_EQ(suite.size(), 6u);
  EXPECT_EQ(suite[0]->name(), "Laplace");
  EXPECT_EQ(suite[1]->name(), "DAWA");
  EXPECT_EQ(suite[2]->name(), "OsdpRR");
  EXPECT_EQ(suite[3]->name(), "OsdpLaplace");
  EXPECT_EQ(suite[4]->name(), "OsdpLaplaceL1");
  EXPECT_EQ(suite[5]->name(), "DAWAz");
}

TEST(HistogramMechanismTest, GuaranteeModels) {
  const auto model_of = [](EngineMechanism m) {
    return MakeCatalogMechanism(m)->Guarantee(1.0).model;
  };
  EXPECT_EQ(model_of(EngineMechanism::kLaplace), PrivacyModel::kDP);
  EXPECT_EQ(model_of(EngineMechanism::kDawa), PrivacyModel::kDP);
  EXPECT_EQ(model_of(EngineMechanism::kHierarchical), PrivacyModel::kDP);
  EXPECT_EQ(MakeOsdpRRMechanism()->Guarantee(1.0).model, PrivacyModel::kOSDP);
  EXPECT_EQ(model_of(EngineMechanism::kOsdpLaplace), PrivacyModel::kOSDP);
  EXPECT_EQ(model_of(EngineMechanism::kOsdpLaplaceL1), PrivacyModel::kOSDP);
  EXPECT_EQ(model_of(EngineMechanism::kDawaz), PrivacyModel::kOSDP);
  EXPECT_EQ(MakeSuppressMechanism(10.0)->Guarantee(1.0).model,
            PrivacyModel::kPDP);
  EXPECT_EQ(MakeDawaNsMechanism()->Guarantee(1.0).model, PrivacyModel::kOSDP);
}

TEST(HistogramMechanismTest, EveryMechanismRunsOnSharedInput) {
  Histogram x(std::vector<double>(64, 5.0));
  Histogram xns(std::vector<double>(64, 3.0));
  auto suite = StandardSuite();
  suite.push_back(MakeSuppressMechanism(10.0));
  suite.push_back(MakeDawaNsMechanism());
  Rng rng(11);
  for (const auto& mech : suite) {
    auto result = mech->Run(x, xns, 1.0, rng);
    ASSERT_TRUE(result.ok()) << mech->name() << ": " << result.status();
    EXPECT_EQ(result->size(), 64u) << mech->name();
  }
}

TEST(HistogramMechanismTest, SuppressNameEncodesTau) {
  EXPECT_EQ(MakeSuppressMechanism(10.0)->name(), "Suppress10");
  EXPECT_EQ(MakeSuppressMechanism(100.0)->name(), "Suppress100");
}

}  // namespace
}  // namespace osdp
