// Tests for the Section 7 constraint analyzer (reachability-compromised
// locations) and the eOSDP partitioned release.

#include <gtest/gtest.h>

#include "src/common/check.h"
#include "src/mech/partitioned.h"
#include "src/traj/building_sim.h"
#include "src/traj/constraints.h"
#include "tests/table_rows.h"

namespace osdp {
namespace {

// A corridor: 0 - 1 - 2 - 3 - 4. Entrance at 0.
std::vector<std::vector<int>> Corridor() {
  return {{1}, {0, 2}, {1, 3}, {2, 4}, {3}};
}

ApSetPolicy PolicyWithSensitive(std::vector<int> aps, size_t n) {
  std::vector<bool> sens(n, false);
  for (int a : aps) sens[static_cast<size_t>(a)] = true;
  return ApSetPolicy(sens);
}

TEST(ConstraintTest, LocationBehindSensitiveIsCompromised) {
  // AP 2 is sensitive; 3 and 4 lie behind it, so visiting them proves a
  // visit to 2 — the paper's exact example.
  auto analysis = *AnalyzeReachabilityConstraints(
      Corridor(), PolicyWithSensitive({2}, 5), /*entrances=*/{0});
  EXPECT_EQ(analysis.compromised_aps, (std::vector<int>{3, 4}));
  EXPECT_TRUE(analysis.closed_policy.IsSensitiveAp(2));
  EXPECT_TRUE(analysis.closed_policy.IsSensitiveAp(3));
  EXPECT_TRUE(analysis.closed_policy.IsSensitiveAp(4));
  EXPECT_FALSE(analysis.closed_policy.IsSensitiveAp(1));
}

TEST(ConstraintTest, NoCompromiseWhenAlternativeRouteExists) {
  // A cycle: 0-1-2-3-0. Sensitive 1; 2 reachable via 3.
  std::vector<std::vector<int>> cycle = {{1, 3}, {0, 2}, {1, 3}, {2, 0}};
  auto analysis = *AnalyzeReachabilityConstraints(
      cycle, PolicyWithSensitive({1}, 4), {0});
  EXPECT_TRUE(analysis.compromised_aps.empty());
  EXPECT_FALSE(analysis.closed_policy.IsSensitiveAp(2));
}

TEST(ConstraintTest, FixpointEscalatesTransitively) {
  // 0 -1- 2 -3- 4 with sensitive {1}: 2,3,4 all compromised through the
  // chain even though only 1 is sensitive.
  auto analysis = *AnalyzeReachabilityConstraints(
      Corridor(), PolicyWithSensitive({1}, 5), {0});
  EXPECT_EQ(analysis.compromised_aps, (std::vector<int>{2, 3, 4}));
}

TEST(ConstraintTest, SensitiveEntranceStrandsEverything) {
  auto analysis = *AnalyzeReachabilityConstraints(
      Corridor(), PolicyWithSensitive({0}, 5), {0});
  EXPECT_EQ(analysis.compromised_aps, (std::vector<int>{1, 2, 3, 4}));
}

TEST(ConstraintTest, Validation) {
  EXPECT_FALSE(AnalyzeReachabilityConstraints({}, PolicyWithSensitive({0}, 1),
                                              {0})
                   .ok());
  EXPECT_FALSE(AnalyzeReachabilityConstraints(Corridor(),
                                              PolicyWithSensitive({0}, 4), {0})
                   .ok());  // size mismatch
  EXPECT_FALSE(AnalyzeReachabilityConstraints(Corridor(),
                                              PolicyWithSensitive({0}, 5), {})
                   .ok());  // no entrances
  EXPECT_FALSE(AnalyzeReachabilityConstraints(Corridor(),
                                              PolicyWithSensitive({0}, 5), {9})
                   .ok());  // bad entrance
}

TEST(ConstraintTest, FindsLeakyTrajectories) {
  ApSetPolicy original = PolicyWithSensitive({2}, 5);
  auto analysis =
      *AnalyzeReachabilityConstraints(Corridor(), original, {0});
  Trajectory clean;
  clean.user_id = 0;
  clean.slots = {0, 1, 0};
  Trajectory leaky;  // claims to be at 4 without the sensitive 2 recorded
  leaky.user_id = 1;
  leaky.slots = {4, 4};
  Trajectory sensitive_traj;
  sensitive_traj.user_id = 2;
  sensitive_traj.slots = {1, 2};
  std::vector<Trajectory> trajs = {clean, leaky, sensitive_traj};
  std::vector<size_t> found = FindLeakyTrajectories(trajs, original, analysis);
  EXPECT_EQ(found, (std::vector<size_t>{1}));
}

TEST(ConstraintTest, RealBuildingGraphClosesQuickly) {
  auto graph = BuildingApGraph(64);
  // Sensitive: a full column of the 8x8 grid — splits the building.
  std::vector<int> wall;
  for (int r = 0; r < 8; ++r) wall.push_back(r * 8 + 3);
  auto analysis = *AnalyzeReachabilityConstraints(
      graph, PolicyWithSensitive(wall, 64), /*entrances=*/{0});
  // Everything right of the wall is compromised: columns 4..7 = 32 APs.
  EXPECT_EQ(analysis.compromised_aps.size(), 32u);
  EXPECT_LE(analysis.rounds, 3);
}

// ------------------------------------------------------ partitioned -------

Table WeeklyData(int n = 3000) {
  Rng rng(3);
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back({Value(static_cast<int64_t>(rng.NextBounded(4))),
                    Value(static_cast<int64_t>(rng.NextBounded(100))),
                    Value(static_cast<int64_t>(rng.NextBernoulli(0.8) ? 1 : 0))});
  }
  return TableFromRows(Schema({{"week", ValueType::kInt64},
                               {"age", ValueType::kInt64},
                               {"opt_in", ValueType::kInt64}}),
                       rows);
}

TEST(PartitionedTest, ReleasesPerPartitionWithMaxComposition) {
  Table data = WeeklyData();
  Policy policy =
      Policy::SensitiveWhen(Predicate::Eq("opt_in", Value(0)), "P_opt");
  PartitionedReleaseOptions opts;
  opts.partition_column = "week";
  opts.num_partitions = 4;
  opts.epsilon_per_partition = 0.5;
  HistogramQuery query{"age", *Domain1D::Numeric(0, 100, 10), std::nullopt};
  Rng rng(4);
  PartitionedRelease rel =
      *PartitionedHistogramRelease(data, policy, query, opts, rng);
  ASSERT_EQ(rel.partitions.size(), 4u);
  for (const Histogram& h : rel.partitions) EXPECT_EQ(h.size(), 10u);
  // Theorem 10.2: composed eOSDP ε = max(ε_i) = 0.5, not 4 * 0.5.
  EXPECT_DOUBLE_EQ(rel.eosdp.epsilon, 0.5);
  EXPECT_EQ(rel.eosdp.model, PrivacyModel::kEOSDP);
  // Theorem 10.1: standard OSDP at twice the eOSDP ε.
  EXPECT_DOUBLE_EQ(rel.osdp_epsilon, 1.0);
}

TEST(PartitionedTest, Validation) {
  Table data = WeeklyData(100);
  Policy policy = Policy::AllSensitive();
  HistogramQuery query{"age", *Domain1D::Numeric(0, 100, 10), std::nullopt};
  Rng rng(5);
  PartitionedReleaseOptions opts;
  opts.partition_column = "week";
  opts.num_partitions = 0;
  EXPECT_FALSE(
      PartitionedHistogramRelease(data, policy, query, opts, rng).ok());
  opts.num_partitions = 2;  // keys go up to 3 → out of range
  EXPECT_FALSE(
      PartitionedHistogramRelease(data, policy, query, opts, rng).ok());
  opts.num_partitions = 4;
  opts.partition_column = "missing";
  EXPECT_FALSE(
      PartitionedHistogramRelease(data, policy, query, opts, rng).ok());
  opts.partition_column = "week";
  opts.epsilon_per_partition = 0.0;
  EXPECT_FALSE(
      PartitionedHistogramRelease(data, policy, query, opts, rng).ok());
}

TEST(PartitionedTest, PolicyThatDoesNotTypeCheckIsAStatus) {
  // Policy text is untrusted input: an unknown column or a string/numeric
  // comparison is refused with a Status before any partition is released.
  Table data = WeeklyData(100);
  HistogramQuery query{"age", *Domain1D::Numeric(0, 100, 10), std::nullopt};
  PartitionedReleaseOptions opts;
  opts.partition_column = "week";
  opts.num_partitions = 4;
  Rng rng(6), untouched(6);
  const auto unknown = PartitionedHistogramRelease(
      data, Policy::SensitiveWhen(Predicate::Lt("nosuch", Value(3))), query,
      opts, rng);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);

  const auto mixed = PartitionedHistogramRelease(
      data, Policy::SensitiveWhen(Predicate::Eq("age", Value("old"))), query,
      opts, rng);
  ASSERT_FALSE(mixed.ok());
  EXPECT_EQ(mixed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(rng.Next(), untouched.Next());  // no noise was drawn
}

}  // namespace
}  // namespace osdp
