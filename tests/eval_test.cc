// Tests for src/eval: metrics (Section 6.2 definitions), regret harness,
// table printer.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/common/check.h"
#include "src/eval/metrics.h"
#include "src/mech/guarantee.h"
#include "src/eval/regret.h"
#include "src/eval/table_printer.h"

namespace osdp {
namespace {

// ---------------------------------------------------------------- metrics --

TEST(MetricsTest, MreMatchesHandComputation) {
  Histogram truth({10, 0, 4});
  Histogram est({12, 3, 4});
  // |10-12|/10 + |0-3|/1 + 0 = 0.2 + 3 + 0; / 3 bins.
  EXPECT_NEAR(MeanRelativeError(truth, est), (0.2 + 3.0) / 3.0, 1e-12);
}

TEST(MetricsTest, DeltaFloorsTheDenominator) {
  Histogram truth({0.5});
  Histogram est({1.5});
  EXPECT_DOUBLE_EQ(MeanRelativeError(truth, est), 1.0);  // /max(0.5, δ = 1)
}

TEST(MetricsTest, RelPercentiles) {
  Histogram truth({10, 10, 10, 10});
  Histogram est({10, 11, 12, 20});
  // per-bin rel: 0, 0.1, 0.2, 1.0
  EXPECT_NEAR(RelativeErrorPercentile(truth, est, 50.0), 0.15, 1e-12);
  EXPECT_NEAR(RelativeErrorPercentile(truth, est, 95.0), 0.88, 1e-9);
  EXPECT_DOUBLE_EQ(RelativeErrorPercentile(truth, est, 0.0), 0.0);
}

TEST(MetricsTest, L1Error) {
  EXPECT_DOUBLE_EQ(L1Error(Histogram({1, 2}), Histogram({0, 5})), 4.0);
}

TEST(MetricsTest, SparseMreCountsImplicitZeros) {
  SparseHistogram truth(1000.0);
  truth.Set(1, 10.0);
  SparseHistogram est(1000.0);
  est.Set(1, 12.0);   // touched, rel err 0.2
  est.Set(2, 3.0);    // invented cell, err 3/1
  // 998 untouched cells at 0.5 implicit error each.
  const double mre = SparseMeanRelativeError(truth, est, 0.5);
  EXPECT_NEAR(mre, (0.2 + 3.0 + 998 * 0.5) / 1000.0, 1e-12);
}

TEST(MetricsTest, SparseSupportMreIgnoresOffSupportCells) {
  SparseHistogram truth(1e9);
  truth.Set(1, 10.0);
  truth.Set(2, 4.0);
  SparseHistogram est(1e9);
  est.Set(1, 12.0);    // rel err 0.2
  est.Set(99, 777.0);  // off-support: ignored by the support view
  // Cell 2 missing from est: rel err 4/4 = 1.
  EXPECT_NEAR(SparseSupportMeanRelativeError(truth, est), (0.2 + 1.0) / 2.0,
              1e-12);
  SparseHistogram empty_truth(10.0);
  EXPECT_DOUBLE_EQ(SparseSupportMeanRelativeError(empty_truth, est), 0.0);
}

TEST(MetricsTest, GuaranteeToStringFormats) {
  PrivacyGuarantee g;
  EXPECT_EQ(g.ToString(), "no guarantee");
  g.model = PrivacyModel::kOSDP;
  g.epsilon = 0.5;
  g.policy_name = "P_x";
  g.exclusion_attack_phi = 0.5;
  EXPECT_EQ(g.ToString(), "(P_x, 0.5)-OSDP [phi=0.5]");
  g.model = PrivacyModel::kDP;
  g.policy_name.clear();
  g.exclusion_attack_phi = std::numeric_limits<double>::infinity();
  EXPECT_EQ(g.ToString(), "(0.5)-DP [no exclusion-attack freedom]");
}

TEST(MetricsTest, SparseMreZeroImplicitForExactMechanisms) {
  SparseHistogram truth(100.0);
  truth.Set(5, 4.0);
  SparseHistogram est(100.0);  // estimates everything as 0
  EXPECT_NEAR(SparseMeanRelativeError(truth, est, 0.0), (4.0 / 4.0) / 100.0,
              1e-12);
}

// ----------------------------------------------------------------- regret --

TEST(RegretTest, RunSuiteOrdersAndNormalizes) {
  Histogram x(std::vector<double>(64, 100.0));
  Histogram xns(std::vector<double>(64, 80.0));
  auto suite = StandardSuite();
  SuiteRunOptions opts;
  opts.repetitions = 3;
  opts.seed = 11;
  auto scores = *RunSuite(suite, x, xns, 1.0, ErrorMetric::kMRE, opts);
  ASSERT_EQ(scores.size(), 6u);
  double best = 1e300;
  for (const auto& s : scores) best = std::min(best, s.error);
  for (const auto& s : scores) {
    EXPECT_GE(s.regret, 1.0 - 1e-12) << s.name;
    EXPECT_NEAR(s.regret, s.error / best, 1e-9) << s.name;
  }
}

TEST(RegretTest, ScoreOfFindsByName) {
  Histogram x(std::vector<double>(16, 10.0));
  auto suite = StandardSuite();
  SuiteRunOptions opts;
  opts.repetitions = 2;
  auto scores = *RunSuite(suite, x, x, 1.0, ErrorMetric::kL1, opts);
  EXPECT_EQ(ScoreOf(scores, "DAWAz").name, "DAWAz");
  EXPECT_EQ(ScoreOf(scores, "Laplace").name, "Laplace");
}

TEST(RegretTest, DeterministicForFixedSeed) {
  Histogram x(std::vector<double>(32, 50.0));
  auto suite = StandardSuite();
  SuiteRunOptions opts;
  opts.repetitions = 2;
  opts.seed = 123;
  auto a = *RunSuite(suite, x, x, 1.0, ErrorMetric::kMRE, opts);
  auto b = *RunSuite(suite, x, x, 1.0, ErrorMetric::kMRE, opts);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].error, b[i].error);
  }
}

TEST(RegretTest, ValidatesArguments) {
  Histogram x({1});
  std::vector<std::unique_ptr<HistogramMechanism>> empty;
  SuiteRunOptions opts;
  EXPECT_FALSE(RunSuite(empty, x, x, 1.0, ErrorMetric::kMRE, opts).ok());
  auto suite = StandardSuite();
  opts.repetitions = 0;
  EXPECT_FALSE(RunSuite(suite, x, x, 1.0, ErrorMetric::kMRE, opts).ok());
}

TEST(RegretTest, AccumulatorAverages) {
  RegretAccumulator acc;
  std::vector<MechanismScore> round1 = {{"A", 1.0, 1.0}, {"B", 2.0, 2.0}};
  std::vector<MechanismScore> round2 = {{"A", 3.0, 3.0}, {"B", 1.0, 1.0}};
  acc.Add(round1);
  acc.Add(round2);
  auto avg = acc.AverageRegrets();
  ASSERT_EQ(avg.size(), 2u);
  EXPECT_DOUBLE_EQ(avg[0].regret, 2.0);
  EXPECT_DOUBLE_EQ(avg[1].regret, 1.5);
}

// ------------------------------------------------------------ TextTable ----

TEST(TextTableTest, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "22"});
  const std::string out = t.ToString();
  EXPECT_NE(out.find("name   value"), std::string::npos);
  EXPECT_NE(out.find("alpha  1"), std::string::npos);
  EXPECT_NE(out.find("b      22"), std::string::npos);
}

TEST(TextTableTest, Formatting) {
  EXPECT_EQ(TextTable::Fmt(0.12345, 3), "0.123");
  EXPECT_EQ(TextTable::Fmt(2.0, 1), "2.0");
  EXPECT_EQ(TextTable::FmtAuto(20787122.0), "2.08e+07");
  EXPECT_EQ(TextTable::FmtAuto(0.5), "0.500");
}

}  // namespace
}  // namespace osdp
