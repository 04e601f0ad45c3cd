// Tests for src/benchdata: DPBench-1D generators (Table 2 fidelity) and the
// MSampling / HiLoSampling policy simulators.

#include <gtest/gtest.h>

#include <cmath>

#include "src/benchdata/dpbench.h"
#include "src/benchdata/sampling.h"
#include "src/common/check.h"

namespace osdp {
namespace {

// ----------------------------------------------------------- generators ----

TEST(DPBenchTest, AllSevenDatasetsGenerate) {
  auto datasets = MakeDPBench1D();
  ASSERT_EQ(datasets.size(), 7u);
  EXPECT_EQ(datasets[0].name, "Adult");
  EXPECT_EQ(datasets[3].name, "Nettrace");
  EXPECT_EQ(datasets[6].name, "Searchlogs");
}

TEST(DPBenchTest, ScaleMatchesTable2Exactly) {
  for (const BenchmarkDataset& d : MakeDPBench1D()) {
    EXPECT_DOUBLE_EQ(d.hist.Total(), d.target_scale) << d.name;
  }
}

TEST(DPBenchTest, SparsityMatchesTable2) {
  for (const BenchmarkDataset& d : MakeDPBench1D()) {
    // Exact up to the rounding of sparsity·4096 to a whole bin count.
    EXPECT_NEAR(d.hist.Sparsity(), d.target_sparsity, 0.5 / 4096.0) << d.name;
  }
}

TEST(DPBenchTest, CountsAreNonNegativeIntegers) {
  for (const BenchmarkDataset& d : MakeDPBench1D()) {
    for (size_t i = 0; i < d.hist.size(); ++i) {
      EXPECT_GE(d.hist[i], 0.0);
      EXPECT_DOUBLE_EQ(d.hist[i], std::floor(d.hist[i])) << d.name;
    }
  }
}

TEST(DPBenchTest, NettraceIsSortedDescending) {
  // The defining feature the paper calls out ("Nettrace is a sorted
  // histogram, which highly favors DAWA").
  BenchmarkDataset d = *MakeDPBenchDataset("Nettrace", 4096, 1);
  for (size_t i = 0; i + 1 < d.hist.size(); ++i) {
    EXPECT_GE(d.hist[i], d.hist[i + 1]);
  }
}

TEST(DPBenchTest, DeterministicForFixedSeed) {
  BenchmarkDataset a = *MakeDPBenchDataset("Adult", 4096, 7);
  BenchmarkDataset b = *MakeDPBenchDataset("Adult", 4096, 7);
  EXPECT_EQ(a.hist.counts(), b.hist.counts());
}

TEST(DPBenchTest, DifferentSeedsDiffer) {
  BenchmarkDataset a = *MakeDPBenchDataset("Adult", 4096, 7);
  BenchmarkDataset b = *MakeDPBenchDataset("Adult", 4096, 8);
  EXPECT_NE(a.hist.counts(), b.hist.counts());
}

TEST(DPBenchTest, UnknownNameRejected) {
  EXPECT_EQ(MakeDPBenchDataset("Nope", 4096, 1).status().code(),
            StatusCode::kNotFound);
}

TEST(DPBenchTest, SmallerDomainsWork) {
  BenchmarkDataset d = *MakeDPBenchDataset("Medcost", 512, 1);
  EXPECT_EQ(d.hist.size(), 512u);
  EXPECT_DOUBLE_EQ(d.hist.Total(), d.target_scale);
}

// ---------------------------------------------- SampleWithoutReplacement ---

TEST(SamplingTest, SubsampleHitsExactTotalAndStaysDominated) {
  Histogram x({100, 0, 250, 50, 600});
  Rng rng(1);
  for (double rho : {0.01, 0.25, 0.5, 0.99}) {
    const auto m = static_cast<int64_t>(std::llround(rho * x.Total()));
    Histogram s = *SampleWithoutReplacement(x, m, rng);
    EXPECT_DOUBLE_EQ(s.Total(), static_cast<double>(m));
    EXPECT_TRUE(s.DominatedBy(x));
    EXPECT_DOUBLE_EQ(s[1], 0.0);
  }
}

TEST(SamplingTest, SubsampleEdgeCases) {
  Histogram x({10, 20});
  Rng rng(2);
  EXPECT_DOUBLE_EQ(SampleWithoutReplacement(x, 0, rng)->Total(), 0.0);
  EXPECT_DOUBLE_EQ(SampleWithoutReplacement(x, 30, rng)->Total(), 30.0);
  EXPECT_FALSE(SampleWithoutReplacement(x, 31, rng).ok());
  EXPECT_FALSE(SampleWithoutReplacement(x, -1, rng).ok());
}

TEST(SamplingTest, SubsampleIsApproximatelyProportional) {
  Histogram x({10000, 30000});
  Rng rng(3);
  Histogram s = *SampleWithoutReplacement(x, 20000, rng);
  EXPECT_NEAR(s[0] / s.Total(), 0.25, 0.02);
}

// ------------------------------------------------------------- MSampling ---

TEST(MSamplingTest, PreservesShapeWithinTheta) {
  BenchmarkDataset d = *MakeDPBenchDataset("Hepth", 4096, 5);
  Rng rng(4);
  Histogram xns = *MSampling(d.hist, 0.5, rng);
  EXPECT_TRUE(xns.DominatedBy(d.hist));
  EXPECT_NEAR(xns.Total(), 0.5 * d.hist.Total(), 1.0);
  const double mu = DomainValueMean(d.hist);
  const double sd = DomainValueStddev(d.hist);
  const double theta = 0.1;  // MSampling's fixed shape tolerance
  EXPECT_NEAR(DomainValueMean(xns) / mu, 1.0, theta);
  EXPECT_NEAR(DomainValueStddev(xns) / sd, 1.0, theta);
}

TEST(MSamplingTest, WorksAcrossTheRatioGrid) {
  BenchmarkDataset d = *MakeDPBenchDataset("Medcost", 1024, 6);
  Rng rng(5);
  for (double rho : {0.99, 0.75, 0.25, 0.01}) {
    Histogram xns = *MSampling(d.hist, rho, rng);
    EXPECT_NEAR(xns.Total(), rho * d.hist.Total(), 1.0) << rho;
    EXPECT_TRUE(xns.DominatedBy(d.hist)) << rho;
  }
}

TEST(MSamplingTest, ValidatesArguments) {
  Histogram x({10, 10});
  Rng rng(6);
  EXPECT_FALSE(MSampling(x, 0.0, rng).ok());
  EXPECT_FALSE(MSampling(x, 1.5, rng).ok());
  // NaN fails every comparison, so the check must reject it too.
  EXPECT_FALSE(MSampling(x, std::nan(""), rng).ok());
}

// ----------------------------------------------------------- HiLoSampling --

TEST(HiLoSamplingTest, ExactTotalAndDomination) {
  BenchmarkDataset d = *MakeDPBenchDataset("Searchlogs", 2048, 7);
  Rng rng(7);
  for (double rho : {0.99, 0.5, 0.1}) {
    Histogram xns = *HiLoSampling(d.hist, rho, rng);
    EXPECT_NEAR(xns.Total(), rho * d.hist.Total(), 1.0) << rho;
    EXPECT_TRUE(xns.DominatedBy(d.hist)) << rho;
  }
}

TEST(HiLoSamplingTest, SkewsShapeMoreThanMSampling) {
  // The whole point of the Far policy: x_ns should look less like x than a
  // Close sample does. Compare L1 distance between normalized shapes.
  BenchmarkDataset d = *MakeDPBenchDataset("Patent", 2048, 8);
  const double rho = 0.25;
  auto shape_distance = [&](const Histogram& xns) {
    double dist = 0.0;
    for (size_t i = 0; i < d.hist.size(); ++i) {
      dist += std::abs(xns[i] / xns.Total() - d.hist[i] / d.hist.Total());
    }
    return dist;
  };
  Rng rng(8);
  double far_dist = 0.0, close_dist = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    far_dist += shape_distance(*HiLoSampling(d.hist, rho, rng));
    close_dist += shape_distance(*MSampling(d.hist, rho, rng));
  }
  EXPECT_GT(far_dist, close_dist);
}

TEST(HiLoSamplingTest, ValidatesArguments) {
  Histogram x({10, 10});
  Rng rng(9);
  EXPECT_FALSE(HiLoSampling(x, 0.0, rng).ok());
  EXPECT_FALSE(HiLoSampling(x, 1.5, rng).ok());
  // NaN fails every comparison, so the check must reject it too.
  EXPECT_FALSE(HiLoSampling(x, std::nan(""), rng).ok());
}

// ------------------------------------------------------ shape utilities ----

TEST(ShapeStatsTest, DomainValueMeanAndStddev) {
  Histogram h({0, 10, 0, 10});  // mass at bins 1 and 3
  EXPECT_DOUBLE_EQ(DomainValueMean(h), 2.0);
  EXPECT_DOUBLE_EQ(DomainValueStddev(h), 1.0);
  Histogram empty(4);
  EXPECT_DOUBLE_EQ(DomainValueMean(empty), 0.0);
  EXPECT_DOUBLE_EQ(DomainValueStddev(empty), 0.0);
}

}  // namespace
}  // namespace osdp
