// Tests for src/attack and src/accesscontrol: the exclusion-attack framework
// of Section 3.2 made executable.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/accesscontrol/access_control.h"
#include "src/attack/exclusion.h"
#include "src/common/check.h"
#include "tests/table_rows.h"

namespace osdp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Domain of 4 values; value 0 is the sensitive one ("smoker's lounge").
std::vector<bool> OneSensitive() { return {true, false, false, false}; }

// ------------------------------------------------------------ validation ---

TEST(SingleRecordMechanismTest, ValidateCatchesBadShapes) {
  SingleRecordMechanism m = MakeTrumanModel(OneSensitive());
  EXPECT_TRUE(m.Validate().ok());
  SingleRecordMechanism bad = m;
  bad.likelihood[0][0] = 0.5;  // row no longer sums to 1
  EXPECT_FALSE(bad.Validate().ok());
  bad = m;
  bad.sensitive.assign(4, true);  // trivial policy
  EXPECT_FALSE(bad.Validate().ok());
  bad = m;
  bad.likelihood.pop_back();
  EXPECT_FALSE(bad.Validate().ok());
}

// --------------------------------------------------------------- Theorem 4.1

TEST(ExclusionTest, OsdpRRSatisfiesOsdpExactlyAtEpsilon) {
  const double eps = 1.0;
  SingleRecordMechanism m = MakeOsdpRRModel(OneSensitive(), eps);
  double max_ratio = 0.0;
  EXPECT_TRUE(*SatisfiesOsdpSingleRecord(m, eps, &max_ratio));
  // Case 2.2 of the Theorem 4.1 proof is tight: ratio = e^ε exactly.
  EXPECT_NEAR(max_ratio, std::exp(eps), 1e-9);
  // And it fails for any smaller ε' < ε (the guarantee is not slack).
  EXPECT_FALSE(*SatisfiesOsdpSingleRecord(m, eps * 0.9, nullptr));
}

TEST(ExclusionTest, OsdpRRPhiEqualsEpsilon) {
  for (double eps : {0.1, 0.5, 1.0, 2.0}) {
    SingleRecordMechanism m = MakeOsdpRRModel(OneSensitive(), eps);
    EXPECT_NEAR(*ExclusionAttackPhi(m), eps, 1e-9) << eps;
  }
}

// ------------------------------------------------- access control leaks ----

TEST(ExclusionTest, TrumanModelHasUnboundedPhi) {
  // Releasing all non-sensitive records truthfully ⇒ the suppressed output
  // certainly excludes non-sensitive values ⇒ unbounded posterior odds.
  SingleRecordMechanism m = MakeTrumanModel(OneSensitive());
  EXPECT_EQ(*ExclusionAttackPhi(m), kInf);
  EXPECT_FALSE(*SatisfiesOsdpSingleRecord(m, 100.0, nullptr));
}

TEST(ExclusionTest, NonTrumanModelHasUnboundedPhi) {
  SingleRecordMechanism m = MakeNonTrumanModel(OneSensitive());
  EXPECT_EQ(*ExclusionAttackPhi(m), kInf);
}

TEST(ExclusionTest, KRandomizedResponsePhiIsEpsilon) {
  // A DP mechanism also enjoys ε-freedom (remark after Theorem 3.1).
  const double eps = 1.5;
  SingleRecordMechanism m = MakeKRandomizedResponseModel(OneSensitive(), eps);
  EXPECT_NEAR(*ExclusionAttackPhi(m), eps, 1e-9);
  EXPECT_TRUE(*SatisfiesOsdpSingleRecord(m, eps, nullptr));
}

// -------------------------------------------------------- posterior odds ---

TEST(ExclusionTest, PosteriorOddsBoundedForOsdpRR) {
  const double eps = 0.7;
  SingleRecordMechanism m = MakeOsdpRRModel(OneSensitive(), eps);
  const std::vector<double> prior = {0.25, 0.25, 0.25, 0.25};
  // Observing suppression (output index 4 = "∅"): odds of sensitive vs any
  // non-sensitive value rise by exactly e^ε... and no more.
  const size_t suppressed = 4;
  for (size_t y = 1; y < 4; ++y) {
    const double odds = *PosteriorOddsRatio(m, prior, 0, y, suppressed);
    const double prior_odds = prior[0] / prior[y];
    EXPECT_LE(odds / prior_odds, std::exp(eps) + 1e-9);
    EXPECT_NEAR(odds / prior_odds, std::exp(eps), 1e-9);  // tight
  }
}

TEST(ExclusionTest, PosteriorOddsExplodeForTruman) {
  SingleRecordMechanism m = MakeTrumanModel(OneSensitive());
  const std::vector<double> prior = {0.1, 0.3, 0.3, 0.3};
  // Suppression under Truman *proves* the record is sensitive.
  const double odds = *PosteriorOddsRatio(m, prior, 0, 1, /*output=*/4);
  EXPECT_EQ(odds, kInf);
}

TEST(ExclusionTest, PosteriorOddsValidation) {
  SingleRecordMechanism m = MakeTrumanModel(OneSensitive());
  std::vector<double> prior = {0.0, 0.4, 0.3, 0.3};
  EXPECT_FALSE(PosteriorOddsRatio(m, prior, 0, 1, 0).ok());  // zero prior on x
  prior[0] = 0.4;
  EXPECT_FALSE(PosteriorOddsRatio(m, {0.5, 0.5}, 0, 1, 0).ok());  // arity
  EXPECT_FALSE(PosteriorOddsRatio(m, prior, 0, 1, 99).ok());      // range
}

// ------------------------------------------- access control (table level) --

Table LocationTable() {
  return TableFromRows(
      Schema({{"user", ValueType::kString}, {"ap", ValueType::kInt64}}),
      {{Value("alice"), Value(5)},
       {Value("bob"), Value(0)},  // smoker's lounge
       {Value("carol"), Value(7)}});
}

Policy LoungeSensitive() {
  return Policy::SensitiveWhen(Predicate::Eq("ap", Value(0)), "P_lounge");
}

TEST(AccessControlTest, TrumanSilentlyHidesSensitiveRows) {
  const AccessControlledDb db =
      *AccessControlledDb::Create(LocationTable(), LoungeSensitive());
  // Locating Bob (who is at the sensitive AP) returns nothing — and that
  // nothing is exactly the exclusion-attack signal.
  auto resp = *db.Select(Predicate::Eq("user", Value("bob")),
                         AccessControlModel::kTruman);
  EXPECT_EQ(resp.kind, AccessControlResponse::Kind::kEmpty);
  // Locating Alice works normally.
  resp = *db.Select(Predicate::Eq("user", Value("alice")),
                    AccessControlModel::kTruman);
  ASSERT_EQ(resp.kind, AccessControlResponse::Kind::kAnswer);
  EXPECT_EQ(resp.rows.num_rows(), 1u);
  EXPECT_EQ(resp.rows.Int64Column(1)[0], 5);
}

TEST(AccessControlTest, NonTrumanRejectsLoudly) {
  const AccessControlledDb db =
      *AccessControlledDb::Create(LocationTable(), LoungeSensitive());
  auto resp = *db.Select(Predicate::Eq("user", Value("bob")),
                         AccessControlModel::kNonTruman);
  EXPECT_EQ(resp.kind, AccessControlResponse::Kind::kRejected);
  resp = *db.Select(Predicate::Eq("user", Value("carol")),
                    AccessControlModel::kNonTruman);
  EXPECT_EQ(resp.kind, AccessControlResponse::Kind::kAnswer);
}

TEST(AccessControlTest, MixedQueriesAnswerFromAuthorizedView) {
  const AccessControlledDb db =
      *AccessControlledDb::Create(LocationTable(), LoungeSensitive());
  // "Everyone": Truman shows only the authorized view (2 of 3 rows).
  auto resp = *db.Select(Predicate::True(), AccessControlModel::kTruman);
  ASSERT_EQ(resp.kind, AccessControlResponse::Kind::kAnswer);
  EXPECT_EQ(resp.rows.num_rows(), 2u);
  // Non-Truman refuses the same query because it touches Bob's row.
  resp = *db.Select(Predicate::True(), AccessControlModel::kNonTruman);
  EXPECT_EQ(resp.kind, AccessControlResponse::Kind::kRejected);
}

TEST(AccessControlTest, PolicyThatDoesNotTypeCheckIsAStatus) {
  // Policy text is untrusted input: a policy naming an unknown column, or
  // comparing a string column against a number, is refused with a Status.
  const auto unknown = AccessControlledDb::Create(
      LocationTable(),
      Policy::SensitiveWhen(Predicate::Lt("nosuch", Value(3))));
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);

  const auto mixed = AccessControlledDb::Create(
      LocationTable(), Policy::SensitiveWhen(Predicate::Eq("user", Value(3))));
  ASSERT_FALSE(mixed.ok());
  EXPECT_EQ(mixed.status().code(), StatusCode::kInvalidArgument);
}

TEST(AccessControlTest, QueryThatDoesNotTypeCheckIsAStatus) {
  const AccessControlledDb db =
      *AccessControlledDb::Create(LocationTable(), LoungeSensitive());
  for (AccessControlModel model :
       {AccessControlModel::kTruman, AccessControlModel::kNonTruman}) {
    const auto unknown = db.Select(Predicate::Eq("nosuch", Value(3)), model);
    ASSERT_FALSE(unknown.ok());
    EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);

    const auto mixed = db.Select(Predicate::Eq("ap", Value("lounge")), model);
    ASSERT_FALSE(mixed.ok());
    EXPECT_EQ(mixed.status().code(), StatusCode::kInvalidArgument);
  }
  // The refused queries changed nothing: the next query still answers.
  EXPECT_EQ(db.Select(Predicate::True(), AccessControlModel::kTruman)->kind,
            AccessControlResponse::Kind::kAnswer);
}

}  // namespace
}  // namespace osdp
