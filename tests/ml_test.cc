// Tests for src/ml: logistic regression, ObjDP, AUC, cross-validation.

#include <gtest/gtest.h>

#include <cmath>

#include "src/common/check.h"
#include "src/ml/evaluation.h"
#include "src/ml/logistic_regression.h"
#include "src/ml/objdp.h"

namespace osdp {
namespace {

// Linearly separable 2-D blobs.
void MakeBlobs(int n_per_class, Rng& rng, Matrix* x, std::vector<int>* y) {
  for (int i = 0; i < n_per_class; ++i) {
    x->push_back({rng.NextDouble() - 2.0, rng.NextDouble() - 2.0});
    y->push_back(0);
    x->push_back({rng.NextDouble() + 2.0, rng.NextDouble() + 2.0});
    y->push_back(1);
  }
}

// ---------------------------------------------------- LogisticRegression ---

TEST(LogisticRegressionTest, LearnsSeparableData) {
  Rng rng(1);
  Matrix x;
  std::vector<int> y;
  MakeBlobs(200, rng, &x, &y);
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(x, y, LogisticRegressionOptions{}).ok());
  int correct = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    correct += ((model.PredictProbability(x[i]) > 0.5) == (y[i] == 1)) ? 1 : 0;
  }
  EXPECT_GT(static_cast<double>(correct) / x.size(), 0.98);
}

TEST(LogisticRegressionTest, InterceptShiftsDecision) {
  // All-positive labels with a constant feature: intercept must dominate.
  Matrix x(50, {0.0});
  std::vector<int> y(50, 1);
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(x, y, LogisticRegressionOptions{}).ok());
  EXPECT_GT(model.PredictProbability({0.0}), 0.9);
}

TEST(LogisticRegressionTest, RejectsDivergentStepSize) {
  LogisticRegressionOptions opts;
  opts.l2_lambda = 10.0;  // 0.5 * 10 >= 2 → contraction factor -4
  LogisticRegression model;
  EXPECT_EQ(model.Fit({{1.0}}, {1}, opts).code(),
            StatusCode::kInvalidArgument);
}

TEST(LogisticRegressionTest, ValidatesInput) {
  LogisticRegression model;
  EXPECT_FALSE(model.Fit({}, {}, LogisticRegressionOptions{}).ok());
  EXPECT_FALSE(model.Fit({{1.0}}, {2}, LogisticRegressionOptions{}).ok());
  EXPECT_FALSE(model.Fit({{1.0}, {1.0, 2.0}}, {0, 1},
                         LogisticRegressionOptions{})
                   .ok());
  EXPECT_FALSE(model.Fit({{1.0}}, {0, 1}, LogisticRegressionOptions{}).ok());
}

TEST(LogisticRegressionTest, RegularizationShrinksWeights) {
  Rng rng(2);
  Matrix x;
  std::vector<int> y;
  MakeBlobs(100, rng, &x, &y);
  LogisticRegressionOptions weak, strong;
  weak.l2_lambda = 1e-6;
  strong.l2_lambda = 1.0;
  LogisticRegression a, b;
  ASSERT_TRUE(a.Fit(x, y, weak).ok());
  ASSERT_TRUE(b.Fit(x, y, strong).ok());
  const double na = std::abs(a.weights()[0]) + std::abs(a.weights()[1]);
  const double nb = std::abs(b.weights()[0]) + std::abs(b.weights()[1]);
  EXPECT_GT(na, nb);
}

TEST(FeatureScalerTest, StandardizesColumns) {
  Matrix x = {{0.0, 100.0}, {10.0, 300.0}};
  FeatureScaler scaler;
  ASSERT_TRUE(scaler.Fit(x).ok());
  Matrix out = scaler.Transform(x);
  EXPECT_NEAR(out[0][0] + out[1][0], 0.0, 1e-9);  // zero mean
  EXPECT_NEAR(out[0][1] + out[1][1], 0.0, 1e-9);
  EXPECT_NEAR(out[1][0] - out[0][0], 2.0, 1e-9);  // unit std → ±1
}

TEST(FeatureScalerTest, ConstantColumnsPassThrough) {
  Matrix x = {{5.0}, {5.0}};
  FeatureScaler scaler;
  ASSERT_TRUE(scaler.Fit(x).ok());
  Matrix out = scaler.Transform(x);
  EXPECT_DOUBLE_EQ(out[0][0], 0.0);
}

TEST(NormalizeRowsTest, CapsNormAtOne) {
  Matrix x = {{3.0, 4.0}, {0.1, 0.1}};
  NormalizeRowsToUnitBall(&x);
  EXPECT_NEAR(std::hypot(x[0][0], x[0][1]), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(x[1][0], 0.1);  // already inside the ball: untouched
}

// ----------------------------------------------------------------- ObjDP ---

TEST(ObjDpTest, RequiresUnitBallRows) {
  Rng rng(3);
  Matrix x = {{3.0, 4.0}};
  std::vector<int> y = {1};
  EXPECT_FALSE(TrainObjDp(x, y, ObjDpOptions{}, rng).ok());
}

// The budget split reads l2_lambda before training does, so a bad λ must be
// refused there: NaN makes the noise scale NaN, and λ = -c/n (c = 1/4) makes
// the split's log term -inf and the noise scale zero.
TEST(ObjDpTest, NanLambdaIsInvalidArgument) {
  Rng rng(3);
  const Matrix x = {{0.1, 0.2}, {-0.3, 0.1}, {0.5, -0.5}, {0.0, 0.6}};
  const std::vector<int> y = {0, 1, 0, 1};
  ObjDpOptions opts;
  opts.erm.l2_lambda = std::nan("");
  const auto r = TrainObjDp(x, y, opts, rng);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ObjDpTest, LambdaWithZeroNoiseScaleIsInvalidArgument) {
  Rng rng(3);
  const Matrix x = {{0.1, 0.2}, {-0.3, 0.1}, {0.5, -0.5}, {0.0, 0.6}};
  const std::vector<int> y = {0, 1, 0, 1};
  ObjDpOptions opts;
  opts.erm.l2_lambda = -0.25 / 4.0;
  const auto r = TrainObjDp(x, y, opts, rng);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ObjDpTest, HighEpsilonApproachesNonPrivateAccuracy) {
  Rng rng(4);
  Matrix x;
  std::vector<int> y;
  MakeBlobs(400, rng, &x, &y);
  NormalizeRowsToUnitBall(&x);
  ObjDpOptions opts;
  opts.epsilon = 50.0;  // near-non-private
  LogisticRegression model = *TrainObjDp(x, y, opts, rng);
  int correct = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    correct += ((model.PredictProbability(x[i]) > 0.5) == (y[i] == 1)) ? 1 : 0;
  }
  EXPECT_GT(static_cast<double>(correct) / x.size(), 0.95);
}

TEST(ObjDpTest, TinyEpsilonDegradesTowardChance) {
  Rng rng(5);
  Matrix x;
  std::vector<int> y;
  MakeBlobs(150, rng, &x, &y);
  NormalizeRowsToUnitBall(&x);
  ObjDpOptions opts;
  opts.epsilon = 0.001;
  // Average accuracy over repeated noise draws hovers near chance.
  double acc = 0.0;
  const int reps = 15;
  for (int rep = 0; rep < reps; ++rep) {
    LogisticRegression model = *TrainObjDp(x, y, opts, rng);
    int correct = 0;
    for (size_t i = 0; i < x.size(); ++i) {
      correct += ((model.PredictProbability(x[i]) > 0.5) == (y[i] == 1)) ? 1 : 0;
    }
    acc += static_cast<double>(correct) / static_cast<double>(x.size());
  }
  acc /= reps;
  EXPECT_LT(acc, 0.85);  // far from the ~1.0 of the non-private model
}

TEST(ObjDpTest, GuaranteeIsDp) {
  EXPECT_EQ(DpGuarantee(1.0).model, PrivacyModel::kDP);
  EXPECT_DOUBLE_EQ(DpGuarantee(1.0).exclusion_attack_phi, 1.0);
}

// ------------------------------------------------------------------- AUC ---

TEST(AucTest, PerfectSeparationIsOne) {
  EXPECT_DOUBLE_EQ(*RocAuc({0.1, 0.2, 0.8, 0.9}, {0, 0, 1, 1}), 1.0);
}

TEST(AucTest, ReversedSeparationIsZero) {
  EXPECT_DOUBLE_EQ(*RocAuc({0.9, 0.8, 0.1, 0.2}, {0, 0, 1, 1}), 0.0);
}

TEST(AucTest, TiesGiveHalfCredit) {
  EXPECT_DOUBLE_EQ(*RocAuc({0.5, 0.5}, {0, 1}), 0.5);
  EXPECT_DOUBLE_EQ(*RocAuc({0.5, 0.5, 0.5, 0.5}, {0, 1, 0, 1}), 0.5);
}

TEST(AucTest, KnownMixedCase) {
  // Scores: pos {0.9, 0.4}, neg {0.5, 0.1}: pairs won = 3 of 4.
  EXPECT_DOUBLE_EQ(*RocAuc({0.9, 0.4, 0.5, 0.1}, {1, 1, 0, 0}), 0.75);
}

TEST(AucTest, RequiresBothClasses) {
  EXPECT_FALSE(RocAuc({0.5, 0.6}, {1, 1}).ok());
  EXPECT_FALSE(RocAuc({0.5}, {0}).ok());
  EXPECT_FALSE(RocAuc({}, {}).ok());
  EXPECT_FALSE(RocAuc({0.5, 0.5}, {0, 2}).ok());
}

// ------------------------------------------------------------------- CV ----

TEST(CrossValidationTest, LogisticOnSeparableDataScoresHigh) {
  Rng rng(6);
  Matrix x;
  std::vector<int> y;
  MakeBlobs(150, rng, &x, &y);
  CvResult cv = *CrossValidateAuc(x, y, 5, LogisticScorerFactory(), rng);
  EXPECT_EQ(cv.fold_aucs.size(), 5u);
  EXPECT_GT(cv.mean_auc, 0.97);
}

TEST(CrossValidationTest, RandomScorerIsNearHalf) {
  Rng rng(7);
  Matrix x;
  std::vector<int> y;
  MakeBlobs(400, rng, &x, &y);
  CvResult cv = *CrossValidateAuc(x, y, 5, RandomScorerFactory(), rng);
  EXPECT_NEAR(cv.mean_auc, 0.5, 0.06);
}

TEST(CrossValidationTest, ValidatesArguments) {
  Rng rng(8);
  Matrix x = {{0.0}, {1.0}};
  std::vector<int> y = {0, 1};
  EXPECT_FALSE(CrossValidateAuc(x, y, 1, RandomScorerFactory(), rng).ok());
  EXPECT_FALSE(CrossValidateAuc(x, y, 5, RandomScorerFactory(), rng).ok());
  EXPECT_FALSE(CrossValidateAuc({}, {}, 2, RandomScorerFactory(), rng).ok());
}

TEST(CrossValidationTest, ObjDpScorerRunsEndToEnd) {
  Rng rng(9);
  Matrix x;
  std::vector<int> y;
  MakeBlobs(100, rng, &x, &y);
  CvResult cv = *CrossValidateAuc(x, y, 3, ObjDpScorerFactory(5.0), rng);
  EXPECT_EQ(cv.fold_aucs.size(), 3u);
  EXPECT_GE(cv.mean_auc, 0.0);
  EXPECT_LE(cv.mean_auc, 1.0);
}

}  // namespace
}  // namespace osdp
