// Tests for src/traj: trajectories, the building simulator, AP policies,
// n-gram counting, features, and the AP x hour histogram.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/common/check.h"
#include "src/traj/ap_hour_histogram.h"
#include "src/traj/ap_policy.h"
#include "src/traj/building_sim.h"
#include "src/traj/features.h"
#include "src/traj/ngram.h"
#include "src/traj/trajectory.h"

namespace osdp {
namespace {

Trajectory MakeTraj(std::vector<int16_t> slots, int32_t user = 0,
                    int32_t day = 0) {
  Trajectory t;
  t.user_id = user;
  t.day = day;
  t.slots = std::move(slots);
  return t;
}

// The shared small simulation used by several tests (built once).
const TrajectoryDataset& SmallSim() {
  static const TrajectoryDataset kSim = [] {
    BuildingSimConfig cfg;
    cfg.num_users = 300;
    cfg.num_days = 20;
    cfg.seed = 99;
    return *SimulateBuilding(cfg);
  }();
  return kSim;
}

// -------------------------------------------------------------- Trajectory -

TEST(TrajectoryTest, PresenceHelpers) {
  Trajectory t = MakeTraj({kAbsent, 3, 3, 5, kAbsent, 7});
  EXPECT_EQ(t.PresentSlots(), 4u);
  EXPECT_EQ(t.DistinctAps(), 3u);
  EXPECT_EQ(t.SlotsAt(3), 2u);
}

TEST(TrajectoryTest, EmptyTrajectory) {
  Trajectory t = MakeTraj({kAbsent, kAbsent});
  EXPECT_EQ(t.PresentSlots(), 0u);
}

// ---------------------------------------------------------------- Sim ------

TEST(BuildingSimTest, ProducesValidTrajectories) {
  const TrajectoryDataset& sim = SmallSim();
  EXPECT_FALSE(sim.trajectories.empty());
  for (const Trajectory& t : sim.trajectories) {
    EXPECT_GE(t.user_id, 0);
    EXPECT_LT(t.user_id, sim.config.num_users);
    EXPECT_EQ(t.slots.size(), static_cast<size_t>(sim.config.slots_per_day));
    EXPECT_GT(t.PresentSlots(), 0u);
    for (int16_t s : t.slots) {
      EXPECT_TRUE(s == kAbsent || (s >= 0 && s < sim.config.num_aps));
    }
  }
}

TEST(BuildingSimTest, ResidentsStayLongerThanVisitors) {
  const TrajectoryDataset& sim = SmallSim();
  double res_slots = 0, res_n = 0, vis_slots = 0, vis_n = 0;
  for (const Trajectory& t : sim.trajectories) {
    if (sim.users[t.user_id].is_resident) {
      res_slots += static_cast<double>(t.PresentSlots());
      res_n += 1;
    } else {
      vis_slots += static_cast<double>(t.PresentSlots());
      vis_n += 1;
    }
  }
  ASSERT_GT(res_n, 0);
  ASSERT_GT(vis_n, 0);
  EXPECT_GT(res_slots / res_n, 2.0 * vis_slots / vis_n);
}

TEST(BuildingSimTest, ResidentsAttendMoreOften) {
  const TrajectoryDataset& sim = SmallSim();
  std::vector<int> days_present(sim.users.size(), 0);
  for (const Trajectory& t : sim.trajectories) days_present[t.user_id]++;
  double res_days = 0, res_n = 0, vis_days = 0, vis_n = 0;
  for (const UserProfile& u : sim.users) {
    if (u.is_resident) {
      res_days += days_present[u.user_id];
      res_n += 1;
    } else {
      vis_days += days_present[u.user_id];
      vis_n += 1;
    }
  }
  EXPECT_GT(res_days / res_n, 3.0 * vis_days / vis_n);
}

TEST(BuildingSimTest, DeterministicForFixedSeed) {
  BuildingSimConfig cfg;
  cfg.num_users = 50;
  cfg.num_days = 5;
  cfg.seed = 7;
  TrajectoryDataset a = *SimulateBuilding(cfg);
  TrajectoryDataset b = *SimulateBuilding(cfg);
  ASSERT_EQ(a.trajectories.size(), b.trajectories.size());
  for (size_t i = 0; i < a.trajectories.size(); ++i) {
    EXPECT_EQ(a.trajectories[i].slots, b.trajectories[i].slots);
  }
}

TEST(BuildingSimTest, ValidatesConfig) {
  BuildingSimConfig cfg;
  cfg.num_aps = 63;  // not a multiple of the grid width
  EXPECT_FALSE(SimulateBuilding(cfg).ok());
  cfg = BuildingSimConfig{};
  cfg.num_users = 1;
  EXPECT_FALSE(SimulateBuilding(cfg).ok());
  cfg = BuildingSimConfig{};
  cfg.resident_fraction = 0.0;
  EXPECT_FALSE(SimulateBuilding(cfg).ok());
  cfg.resident_fraction = std::nan("");
  EXPECT_FALSE(SimulateBuilding(cfg).ok());
}

TEST(BuildingSimTest, ApGraphIsSymmetricAndConnectedish) {
  auto graph = BuildingApGraph(64);
  ASSERT_EQ(graph.size(), 64u);
  for (int a = 0; a < 64; ++a) {
    for (int b : graph[a]) {
      // Symmetry of the 4-neighbourhood.
      bool back = false;
      for (int c : graph[b]) back |= (c == a);
      EXPECT_TRUE(back);
    }
    EXPECT_GE(graph[a].size(), 2u);  // corner APs have 2 neighbours
  }
}

TEST(BuildingSimTest, MovementIsSpatiallyCoherent) {
  // Consecutive present slots are either the same AP or grid neighbours —
  // the property that makes n-grams meaningful.
  auto graph = BuildingApGraph(64);
  const TrajectoryDataset& sim = SmallSim();
  for (size_t i = 0; i < std::min<size_t>(sim.trajectories.size(), 200); ++i) {
    const Trajectory& t = sim.trajectories[i];
    for (size_t s = 0; s + 1 < t.slots.size(); ++s) {
      if (t.slots[s] == kAbsent || t.slots[s + 1] == kAbsent) continue;
      if (t.slots[s] == t.slots[s + 1]) continue;
      bool adjacent = false;
      for (int n : graph[t.slots[s]]) adjacent |= (n == t.slots[s + 1]);
      EXPECT_TRUE(adjacent) << "jump " << t.slots[s] << "->" << t.slots[s + 1];
    }
  }
}

// --------------------------------------------------------------- Policies --

TEST(ApPolicyTest, SensitivityByApVisit) {
  std::vector<bool> aps(8, false);
  aps[3] = true;
  ApSetPolicy policy(aps);
  EXPECT_TRUE(policy.IsSensitive(MakeTraj({1, 2, 3})));
  EXPECT_FALSE(policy.IsSensitive(MakeTraj({1, 2, 4})));
  EXPECT_FALSE(policy.IsSensitive(MakeTraj({kAbsent})));
  EXPECT_TRUE(policy.IsSensitiveAp(3));
  EXPECT_FALSE(policy.IsSensitiveAp(2));
}

TEST(ApPolicyTest, AsGenericPolicyAgrees) {
  std::vector<bool> aps(8, false);
  aps[0] = true;
  ApSetPolicy policy(aps);
  auto generic = policy.AsPolicy();
  Trajectory t = MakeTraj({0, 1});
  EXPECT_TRUE(policy.IsSensitive(t));
  EXPECT_FALSE(generic.IsNonSensitive(t));
  EXPECT_TRUE(generic.IsNonSensitive(MakeTraj({1, 2})));
}

TEST(ApPolicyTest, CalibrationApproachesTargets) {
  const TrajectoryDataset& sim = SmallSim();
  for (double target : PaperPolicyGrid()) {
    ApSetPolicy policy =
        *CalibrateApPolicy(sim.trajectories, sim.config.num_aps, target);
    const double achieved = policy.NonSensitiveFraction(sim.trajectories);
    // AP-set granularity limits precision; 0.12 absolute is ample for the
    // policy grid {0.99...0.01} to stay ordered and distinct.
    EXPECT_NEAR(achieved, target, 0.12) << "target " << target;
  }
}

TEST(ApPolicyTest, CalibrationValidates) {
  const TrajectoryDataset& sim = SmallSim();
  EXPECT_FALSE(CalibrateApPolicy({}, 64, 0.5).ok());
  EXPECT_FALSE(CalibrateApPolicy(sim.trajectories, 64, 0.0).ok());
  EXPECT_FALSE(CalibrateApPolicy(sim.trajectories, 64, 1.0).ok());
  EXPECT_FALSE(CalibrateApPolicy(sim.trajectories, 64, std::nan("")).ok());
}

TEST(ApPolicyTest, ApHourBinSensitivity) {
  std::vector<bool> aps(4, false);
  aps[2] = true;
  ApSetPolicy policy(aps);
  std::vector<bool> bins = policy.ApHourBinSensitivity(3);
  ASSERT_EQ(bins.size(), 12u);
  for (size_t h = 0; h < 3; ++h) {
    EXPECT_TRUE(bins[2 * 3 + h]);
    EXPECT_FALSE(bins[0 * 3 + h]);
  }
}

// ---------------------------------------------------------------- n-grams --

TEST(NGramTest, DistinctUserCounting) {
  // Two users share the movement 1->2->3; a third goes elsewhere.
  std::vector<Trajectory> trajs = {
      MakeTraj({1, 2, 3}, /*user=*/0),
      MakeTraj({1, 1, 2, 3}, /*user=*/1),  // dwell compressed to 1,2,3
      MakeTraj({4, 5, 6}, /*user=*/2),
      MakeTraj({1, 2, 3}, /*user=*/0, /*day=*/1),  // same user, second day
  };
  NGramOptions opts;
  opts.n = 3;
  opts.alphabet = 8;
  SparseHistogram h = *NGramDistinctUsers(trajs, opts);
  EXPECT_DOUBLE_EQ(h.Get(EncodeNGram({1, 2, 3}, 8)), 2.0);  // users 0 and 1
  EXPECT_DOUBLE_EQ(h.Get(EncodeNGram({4, 5, 6}, 8)), 1.0);
  EXPECT_DOUBLE_EQ(h.domain_size(), 512.0);
}

TEST(NGramTest, TruncationLimitsPerTrajectoryContribution) {
  // One trajectory with many n-grams: truncation at k keeps at most k.
  std::vector<int16_t> slots;
  for (int i = 0; i < 20; ++i) slots.push_back(static_cast<int16_t>(i % 32));
  std::vector<Trajectory> trajs = {MakeTraj(slots, 0)};
  NGramOptions opts;
  opts.n = 3;
  opts.alphabet = 32;
  Rng rng(1);
  SparseHistogram full = *NGramDistinctUsers(trajs, opts);
  SparseHistogram trunc = *TruncatedNGramDistinctUsers(trajs, opts, 2, rng);
  EXPECT_GT(full.num_materialized(), 2u);
  EXPECT_LE(trunc.num_materialized(), 2u);
}

TEST(NGramTest, LaplaceNoisesMaterializedCells) {
  SparseHistogram truth(1e6);
  truth.Set(10, 50.0);
  truth.Set(20, 5.0);
  Rng rng(2);
  SparseHistogram noisy = *NGramLaplace(truth, /*k=*/1, /*epsilon=*/1.0, rng);
  EXPECT_EQ(noisy.num_materialized(), 2u);
  EXPECT_NE(noisy.Get(10), 50.0);  // noise was added (a.s.)
  EXPECT_DOUBLE_EQ(NGramLaplaceZeroCellError(1, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(NGramLaplaceZeroCellError(4, 0.5), 16.0);
}

TEST(NGramTest, ValidatesDomainFitsCellIds) {
  NGramOptions opts;
  opts.n = 11;
  opts.alphabet = 64;  // 64^11 = 2^66 > uint64
  EXPECT_FALSE(NGramDistinctUsers({}, opts).ok());
}

TEST(NGramTest, DwellIsCompressedBeforeWindowing) {
  Trajectory t = MakeTraj({1, 1, 1, 2});
  NGramOptions opts;
  opts.n = 2;
  opts.alphabet = 8;
  // (1,2) only: without compression (1,1) would be a second 2-gram.
  EXPECT_EQ(TrajectoryNGrams(t, opts), (std::vector<std::vector<int>>{{1, 2}}));
}

// --------------------------------------------------------------- Features --

TEST(FeatureTest, MiningFindsPlantedPattern) {
  std::vector<Trajectory> trajs;
  for (int i = 0; i < 60; ++i) trajs.push_back(MakeTraj({7, 8, 9}, i));
  for (int i = 0; i < 10; ++i) trajs.push_back(MakeTraj({1, 2, 3}, 60 + i));
  auto patterns = MineFrequentPatterns(trajs, /*min_support=*/50);
  ASSERT_EQ(patterns.size(), 1u);
  EXPECT_EQ(patterns[0], (std::vector<int>{7, 8, 9}));
}

TEST(FeatureTest, BuildsLabeledMatrix) {
  const TrajectoryDataset& sim = SmallSim();
  auto patterns = MineFrequentPatterns(sim.trajectories, /*min_support=*/30);
  LabeledFeatures feats = *BuildClassificationFeatures(
      sim.trajectories, sim.users, sim.config.num_aps, patterns);
  ASSERT_EQ(feats.x.size(), sim.trajectories.size());
  ASSERT_EQ(feats.y.size(), sim.trajectories.size());
  const size_t expected_cols = 2 + 64 + patterns.size();
  EXPECT_EQ(feats.feature_names.size(), expected_cols);
  for (const auto& row : feats.x) EXPECT_EQ(row.size(), expected_cols);
  // Both labels must be present for the classification task to exist.
  std::set<int> labels(feats.y.begin(), feats.y.end());
  EXPECT_EQ(labels, (std::set<int>{0, 1}));
}

TEST(FeatureTest, DurationFeatureMatchesTrajectory) {
  const TrajectoryDataset& sim = SmallSim();
  LabeledFeatures feats = *BuildClassificationFeatures(
      sim.trajectories, sim.users, sim.config.num_aps, {});
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(feats.x[i][0],
                     static_cast<double>(sim.trajectories[i].PresentSlots()));
  }
}

// --------------------------------------------------------- ApHour histo ----

TEST(ApHourTest, CountsDistinctUsers) {
  // User 0 visits AP 1 twice within hour 0 — counted once.
  std::vector<int16_t> a(12, kAbsent);
  a[0] = 1;
  a[1] = 1;
  std::vector<int16_t> b(12, kAbsent);
  b[0] = 1;
  std::vector<Trajectory> trajs = {MakeTraj(a, 0), MakeTraj(b, 1)};
  ApHourOptions opts;
  opts.num_aps = 4;
  opts.slots_per_day = 12;
  opts.hours = 2;
  opts.day = 0;
  Histogram2D h = *ApHourDistinctUsers(trajs, opts);
  EXPECT_DOUBLE_EQ(h.At(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(h.flat().Total(), 2.0);
}

TEST(ApHourTest, UserDayModeCountsAcrossDays) {
  std::vector<int16_t> s(12, kAbsent);
  s[0] = 2;
  std::vector<Trajectory> trajs = {MakeTraj(s, 0, 0), MakeTraj(s, 0, 1)};
  ApHourOptions opts;
  opts.num_aps = 4;
  opts.slots_per_day = 12;
  opts.hours = 2;
  opts.day = -1;  // distinct (user, day) pairs
  Histogram2D h = *ApHourDistinctUsers(trajs, opts);
  EXPECT_DOUBLE_EQ(h.At(2, 0), 2.0);
}

TEST(ApHourTest, ValidatesDivisibility) {
  ApHourOptions opts;
  opts.slots_per_day = 10;
  opts.hours = 3;
  EXPECT_FALSE(ApHourDistinctUsers({}, opts).ok());
}

}  // namespace
}  // namespace osdp
