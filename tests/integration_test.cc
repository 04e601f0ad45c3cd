// Cross-module integration tests: the paper's pipelines end to end.

#include <gtest/gtest.h>

#include <cmath>

#include "src/accounting/concurrent.h"
#include "src/benchdata/dpbench.h"
#include "src/benchdata/sampling.h"
#include "src/common/check.h"
#include "src/eval/metrics.h"
#include "src/eval/regret.h"
#include "src/hist/histogram_query.h"
#include "src/mech/histogram_mechanism.h"
#include "src/mech/osdp_laplace.h"
#include "src/mech/osdp_rr.h"
#include "src/ml/evaluation.h"
#include "src/traj/ap_hour_histogram.h"
#include "src/traj/ap_policy.h"
#include "src/traj/building_sim.h"
#include "src/traj/features.h"
#include "src/traj/ngram.h"
#include "tests/table_rows.h"

namespace osdp {
namespace {

// One shared simulation for the heavier pipelines.
const TrajectoryDataset& Sim() {
  static const TrajectoryDataset kSim = [] {
    BuildingSimConfig cfg;
    cfg.num_users = 400;
    cfg.num_days = 30;
    cfg.seed = 2020;
    return *SimulateBuilding(cfg);
  }();
  return kSim;
}

// ----------------------- classification pipeline (Fig. 1 shape) -----------

TEST(IntegrationTest, OsdpRRClassificationBeatsObjDpAtLowEpsilon) {
  const TrajectoryDataset& sim = Sim();
  ApSetPolicy ap_policy =
      *CalibrateApPolicy(sim.trajectories, sim.config.num_aps, 0.75);
  auto policy = ap_policy.AsPolicy();

  // OsdpRR releases a true sample of non-sensitive trajectories.
  Rng rng(1);
  const double eps = 1.0;
  const std::vector<size_t> released =
      *OsdpRRSelectGeneric(sim.trajectories, policy, eps, rng);
  ASSERT_GT(released.size(), 100u);
  std::vector<Trajectory> sample;
  for (size_t i : released) sample.push_back(sim.trajectories[i]);

  auto patterns = MineFrequentPatterns(sample, /*min_support=*/25);
  LabeledFeatures feats = *BuildClassificationFeatures(
      sample, sim.users, sim.config.num_aps, patterns);

  CvResult rr_cv =
      *CrossValidateAuc(feats.x, feats.y, 5, LogisticScorerFactory(), rng);
  CvResult random_cv =
      *CrossValidateAuc(feats.x, feats.y, 5, RandomScorerFactory(), rng);
  // ObjDP at tiny ε on the same features: near-chance (Figure 1b shape).
  CvResult objdp_cv =
      *CrossValidateAuc(feats.x, feats.y, 5, ObjDpScorerFactory(0.01), rng);

  EXPECT_GT(rr_cv.mean_auc, 0.9);  // residents are easy to spot on true data
  EXPECT_NEAR(random_cv.mean_auc, 0.5, 0.07);
  EXPECT_LT(objdp_cv.mean_auc, rr_cv.mean_auc - 0.15);
}

// ----------------------- n-gram pipeline (Fig. 2/3 shape) -----------------

TEST(IntegrationTest, OsdpRRNgramsBeatLaplaceAtLowEpsilon) {
  const TrajectoryDataset& sim = Sim();
  ApSetPolicy ap_policy =
      *CalibrateApPolicy(sim.trajectories, sim.config.num_aps, 0.90);
  auto policy = ap_policy.AsPolicy();

  NGramOptions nopts;
  nopts.n = 4;
  SparseHistogram truth = *NGramDistinctUsers(sim.trajectories, nopts);
  ASSERT_GT(truth.num_materialized(), 50u);

  const double eps = 0.01;
  Rng rng(2);

  // OsdpRR: release true trajectories, recount — exact zeros elsewhere.
  const std::vector<size_t> released =
      *OsdpRRSelectGeneric(sim.trajectories, policy, eps, rng);
  std::vector<Trajectory> sample;
  for (size_t i : released) sample.push_back(sim.trajectories[i]);
  SparseHistogram rr_est = *NGramDistinctUsers(sample, nopts);
  const double rr_mre = SparseMeanRelativeError(truth, rr_est,
                                                /*implicit_zero_error=*/0.0);

  // LM T1: truncate to 1 n-gram per trajectory, Laplace-noise everything.
  SparseHistogram trunc = *TruncatedNGramDistinctUsers(sim.trajectories, nopts,
                                                       /*k=*/1, rng);
  SparseHistogram lm_est = *NGramLaplace(trunc, 1, eps, rng);
  const double lm_mre = SparseMeanRelativeError(
      truth, lm_est, NGramLaplaceZeroCellError(1, eps));

  // Figure 2b: at ε = 0.01 the DP baseline is orders of magnitude worse.
  EXPECT_LT(rr_mre * 10.0, lm_mre);
}

// ----------------------- TIPPERS 2-D histogram (Fig. 4 shape) -------------

TEST(IntegrationTest, ApHourHistogramSuiteRuns) {
  const TrajectoryDataset& sim = Sim();
  ApSetPolicy ap_policy =
      *CalibrateApPolicy(sim.trajectories, sim.config.num_aps, 0.75);

  ApHourOptions hopts;
  hopts.num_aps = sim.config.num_aps;
  hopts.slots_per_day = sim.config.slots_per_day;
  Histogram2D full = *ApHourDistinctUsers(sim.trajectories, hopts);

  std::vector<Trajectory> ns_trajs;
  for (const Trajectory& t : sim.trajectories) {
    if (!ap_policy.IsSensitive(t)) ns_trajs.push_back(t);
  }
  Histogram2D ns = *ApHourDistinctUsers(ns_trajs, hopts);
  ASSERT_TRUE(ns.flat().DominatedBy(full.flat()));

  SuiteRunOptions opts;
  opts.repetitions = 3;
  auto scores = *RunSuite(StandardSuite(), full.flat(), ns.flat(), 1.0,
                          ErrorMetric::kMRE, opts);
  ASSERT_EQ(scores.size(), 6u);
  for (const auto& s : scores) {
    EXPECT_TRUE(std::isfinite(s.error)) << s.name;
  }
}

// ----------------------- DPBench + regret (Fig. 9 shape) ------------------

TEST(IntegrationTest, OsdpBeatsDawaOnSparseAdultAtHighNsRatio) {
  BenchmarkDataset adult = *MakeDPBenchDataset("Adult", 4096, 9);
  Rng rng(3);
  Histogram xns = *MSampling(adult.hist, 0.99, rng);
  SuiteRunOptions opts;
  opts.repetitions = 5;
  opts.seed = 77;
  auto scores = *RunSuite(StandardSuite(), adult.hist, xns, 1.0,
                          ErrorMetric::kMRE, opts);
  // The paper's headline: OSDP algorithms dominate DAWA on sparse data with
  // ~all records non-sensitive (25x in Fig. 9a; we assert a 5x margin).
  EXPECT_GT(ScoreOf(scores, "DAWA").error,
            5.0 * ScoreOf(scores, "OsdpLaplaceL1").error);
}

TEST(IntegrationTest, DawaCompetitiveAtLowNsRatio) {
  // Figure 6: at ρx ≤ 0.25 the DP algorithms win against pure OSDP ones.
  BenchmarkDataset patent = *MakeDPBenchDataset("Patent", 4096, 9);
  Rng rng(4);
  Histogram xns = *MSampling(patent.hist, 0.10, rng);
  SuiteRunOptions opts;
  opts.repetitions = 3;
  auto scores = *RunSuite(StandardSuite(), patent.hist, xns, 1.0,
                          ErrorMetric::kMRE, opts);
  EXPECT_LT(ScoreOf(scores, "DAWA").error,
            ScoreOf(scores, "OsdpLaplaceL1").error);
}

// ----------------------- accounting pipeline ------------------------------

TEST(IntegrationTest, BudgetedDawazPipelineComposes) {
  // Reconstruct DAWAz's budget arithmetic through the public accounting API
  // and verify the ledger certifies Theorem 5.3's composed guarantee.
  const double total_eps = 1.0;
  SharedBudget budget(total_eps);
  // DAWAz's ρ = 0.1 split of the total budget.
  const double eps1 = 0.1 * budget.remaining();
  ASSERT_TRUE(budget.Spend(eps1, "OsdpRR zero detector").ok());
  const double eps2 = budget.remaining();
  ASSERT_TRUE(budget.Spend(eps2, "DAWA on full histogram").ok());
  EXPECT_NEAR(eps1, 0.1, 1e-12);
  EXPECT_NEAR(eps1 + eps2, total_eps, 1e-12);

  Policy p = Policy::SensitiveWhen(Predicate::Eq("opt_in", Value(0)), "P_opt");
  SharedLedger ledger;
  ledger.Record(p, eps1, "zero detector (OSDP)");
  // DAWA is ε₂-DP ⇒ (P, ε₂)-OSDP for every P (Lemma 3.1).
  ledger.Record(p, eps2, "DAWA (DP => OSDP)");
  ComposedGuarantee g = *ledger.Sequential();
  EXPECT_NEAR(g.epsilon, total_eps, 1e-12);
}

// ----------------------- Table-level OSDP query flow ----------------------

TEST(IntegrationTest, TableToHistogramOsdpRelease) {
  // A GDPR-style opt-in table released through OsdpLaplaceL1.
  Rng data_rng(5);
  std::vector<Row> rows;
  for (int i = 0; i < 5000; ++i) {
    const auto age = static_cast<int64_t>(data_rng.NextBounded(100));
    const auto opt = static_cast<int64_t>(data_rng.NextBernoulli(0.8) ? 1 : 0);
    rows.push_back({Value(age), Value(opt)});
  }
  const Table t = TableFromRows(
      Schema({{"age", ValueType::kInt64}, {"opt_in", ValueType::kInt64}}),
      rows);
  Policy policy =
      Policy::SensitiveWhen(Predicate::Eq("opt_in", Value(0)), "opt_out");
  HistogramQuery q{"age", *Domain1D::Numeric(0, 100, 20), std::nullopt};
  Histogram x = *ComputeHistogram(t, q);
  Histogram xns = *ComputeHistogramMasked(t, q, policy.NonSensitiveRowMask(t));
  ASSERT_TRUE(xns.DominatedBy(x));

  Rng rng(6);
  Histogram est = *OsdpLaplaceL1(xns, 1.0, rng);
  // Rough utility sanity: per-bin MRE stays small because ~80% of the mass
  // is visible and bins hold ~250 records each.
  EXPECT_LT(MeanRelativeError(x, est), 0.35);
}

}  // namespace
}  // namespace osdp
