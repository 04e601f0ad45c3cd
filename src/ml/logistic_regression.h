// Logistic regression (the classifier of Section 6.2) and utilities for
// preparing feature matrices. Trained by full-batch gradient descent on the
// L2-regularized logistic loss; no external dependencies. The model always
// fits an intercept and steps at a fixed learning rate of 0.5
// (kLearningRate in logistic_regression.cc): every classifier the paper's
// Figure 1 trains uses both, on standardized or unit-ball rows.

#ifndef OSDP_ML_LOGISTIC_REGRESSION_H_
#define OSDP_ML_LOGISTIC_REGRESSION_H_

#include <vector>

#include "src/common/random.h"
#include "src/common/result.h"

namespace osdp {

/// A dense design matrix: x[i] is the i-th example's feature vector.
using Matrix = std::vector<std::vector<double>>;

/// Training options.
struct LogisticRegressionOptions {
  int epochs = 300;
  double l2_lambda = 1e-3;  ///< regularization strength λ (per-example scale)
};

/// OK when `opts` can train: epochs positive, l2_lambda non-negative, and
/// 0.5 * l2_lambda < 2 (the step of the fixed learning rate must contract).
/// NaN fails every check.
Status ValidateLogisticRegressionOptions(const LogisticRegressionOptions& opts);

/// \brief L2-regularized logistic regression.
///
/// Labels are {0, 1}; Fit minimizes
///   (1/n) Σ log(1 + exp(-ỹ_i wᵀx_i)) + (λ/2)‖w‖²   with ỹ = 2y - 1,
/// optionally with a linear perturbation term bᵀw/n (used by ObjDP).
class LogisticRegression {
 public:
  /// Trains on (x, y). Errors on shape mismatches or empty input.
  Status Fit(const Matrix& x, const std::vector<int>& y,
             const LogisticRegressionOptions& opts);

  /// Trains with the extra objective term bᵀw/n (objective perturbation).
  /// `b` must have the same length as the (intercept-extended) weights.
  Status FitPerturbed(const Matrix& x, const std::vector<int>& y,
                      const LogisticRegressionOptions& opts,
                      const std::vector<double>& b);

  /// P(y = 1 | row). Requires a trained model with matching arity.
  double PredictProbability(const std::vector<double>& row) const;

  /// The learned weights (the last entry is the intercept).
  const std::vector<double>& weights() const { return weights_; }

 private:
  std::vector<double> weights_;
  size_t num_features_ = 0;
};

/// \brief Column standardizer: (v - mean) / std per feature, fit on training
/// data and applied to both splits so no test leakage occurs.
class FeatureScaler {
 public:
  /// Learns per-column mean/std; zero-variance columns pass through.
  Status Fit(const Matrix& x);
  /// Applies the learned transform.
  Matrix Transform(const Matrix& x) const;

 private:
  std::vector<double> mean_;
  std::vector<double> inv_std_;
};

/// \brief Scales every row to L2 norm at most 1 (in place) — the input
/// contract of objective perturbation ("we normalized feature vectors to
/// ensure the norm is bounded by 1", Section 6.3.1).
void NormalizeRowsToUnitBall(Matrix* x);

}  // namespace osdp

#endif  // OSDP_ML_LOGISTIC_REGRESSION_H_
