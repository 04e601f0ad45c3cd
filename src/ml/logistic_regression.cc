#include "src/ml/logistic_regression.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace osdp {

namespace {

// The gradient-descent step size; see the header.
constexpr double kLearningRate = 0.5;

double Sigmoid(double z) {
  if (z >= 0) {
    return 1.0 / (1.0 + std::exp(-z));
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

Status ValidateInput(const Matrix& x, const std::vector<int>& y) {
  if (x.empty()) return Status::InvalidArgument("empty design matrix");
  if (x.size() != y.size()) {
    return Status::InvalidArgument("x and y row counts differ");
  }
  const size_t d = x[0].size();
  if (d == 0) return Status::InvalidArgument("zero-width design matrix");
  for (const auto& row : x) {
    if (row.size() != d) return Status::InvalidArgument("ragged design matrix");
  }
  for (int label : y) {
    if (label != 0 && label != 1) {
      return Status::InvalidArgument("labels must be 0 or 1");
    }
  }
  return Status::OK();
}

}  // namespace

Status ValidateLogisticRegressionOptions(
    const LogisticRegressionOptions& opts) {
  if (opts.epochs <= 0) {
    return Status::InvalidArgument("epochs must be positive");
  }
  if (!(opts.l2_lambda >= 0.0)) {
    return Status::InvalidArgument("l2_lambda must be non-negative");
  }
  // Gradient descent on the regularizer alone contracts weights by a factor
  // (1 - lr·λ) per step; |1 - lr·λ| >= 1 diverges regardless of the data.
  if (!(kLearningRate * opts.l2_lambda < 2.0)) {
    return Status::InvalidArgument(
        "l2_lambda must be < 4 for gradient descent at step 0.5 to "
        "converge");
  }
  return Status::OK();
}

Status LogisticRegression::Fit(const Matrix& x, const std::vector<int>& y,
                               const LogisticRegressionOptions& opts) {
  return FitPerturbed(x, y, opts, {});
}

Status LogisticRegression::FitPerturbed(const Matrix& x,
                                        const std::vector<int>& y,
                                        const LogisticRegressionOptions& opts,
                                        const std::vector<double>& b) {
  OSDP_RETURN_IF_ERROR(ValidateInput(x, y));
  OSDP_RETURN_IF_ERROR(ValidateLogisticRegressionOptions(opts));
  const size_t n = x.size();
  num_features_ = x[0].size();
  const size_t d = num_features_ + 1;  // the last weight is the intercept
  if (!b.empty() && b.size() != d) {
    return Status::InvalidArgument("perturbation vector arity mismatch");
  }
  weights_.assign(d, 0.0);

  std::vector<double> grad(d);
  const double inv_n = 1.0 / static_cast<double>(n);
  for (int epoch = 0; epoch < opts.epochs; ++epoch) {
    std::fill(grad.begin(), grad.end(), 0.0);
    for (size_t i = 0; i < n; ++i) {
      double z = 0.0;
      for (size_t j = 0; j < num_features_; ++j) z += weights_[j] * x[i][j];
      z += weights_[d - 1];
      // d/dw of log(1+exp(-ỹ z)) = (σ(z) - y) x.
      const double residual = Sigmoid(z) - static_cast<double>(y[i]);
      for (size_t j = 0; j < num_features_; ++j) {
        grad[j] += residual * x[i][j];
      }
      grad[d - 1] += residual;
    }
    for (size_t j = 0; j < d; ++j) {
      double g = grad[j] * inv_n + opts.l2_lambda * weights_[j];
      if (!b.empty()) g += b[j] * inv_n;
      weights_[j] -= kLearningRate * g;
    }
  }
  return Status::OK();
}

double LogisticRegression::PredictProbability(
    const std::vector<double>& row) const {
  OSDP_CHECK_MSG(row.size() == num_features_, "feature arity mismatch");
  double z = 0.0;
  for (size_t j = 0; j < num_features_; ++j) z += weights_[j] * row[j];
  z += weights_.back();
  return Sigmoid(z);
}

Status FeatureScaler::Fit(const Matrix& x) {
  if (x.empty() || x[0].empty()) {
    return Status::InvalidArgument("empty design matrix");
  }
  const size_t d = x[0].size();
  mean_.assign(d, 0.0);
  inv_std_.assign(d, 1.0);
  for (const auto& row : x) {
    if (row.size() != d) return Status::InvalidArgument("ragged design matrix");
    for (size_t j = 0; j < d; ++j) mean_[j] += row[j];
  }
  for (double& m : mean_) m /= static_cast<double>(x.size());
  std::vector<double> var(d, 0.0);
  for (const auto& row : x) {
    for (size_t j = 0; j < d; ++j) {
      const double delta = row[j] - mean_[j];
      var[j] += delta * delta;
    }
  }
  for (size_t j = 0; j < d; ++j) {
    var[j] /= static_cast<double>(x.size());
    inv_std_[j] = var[j] > 1e-12 ? 1.0 / std::sqrt(var[j]) : 1.0;
  }
  return Status::OK();
}

Matrix FeatureScaler::Transform(const Matrix& x) const {
  OSDP_CHECK(!mean_.empty());
  Matrix out(x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    OSDP_CHECK(x[i].size() == mean_.size());
    out[i].resize(mean_.size());
    for (size_t j = 0; j < mean_.size(); ++j) {
      out[i][j] = (x[i][j] - mean_[j]) * inv_std_[j];
    }
  }
  return out;
}

void NormalizeRowsToUnitBall(Matrix* x) {
  OSDP_CHECK(x != nullptr);
  for (auto& row : *x) {
    double norm2 = 0.0;
    for (double v : row) norm2 += v * v;
    const double norm = std::sqrt(norm2);
    if (norm > 1.0) {
      for (double& v : row) v /= norm;
    }
  }
}

}  // namespace osdp
