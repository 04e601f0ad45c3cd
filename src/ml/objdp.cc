#include "src/ml/objdp.h"

#include <cmath>

#include "src/common/distributions.h"

namespace osdp {

namespace {

// Curvature bound of the logistic loss.
constexpr double kC = 0.25;

// ‖b‖ ~ Γ(shape=d, scale=2/ε'): sum of d exponentials (integer shape).
double SampleGammaNorm(Rng& rng, size_t d, double scale) {
  double acc = 0.0;
  for (size_t i = 0; i < d; ++i) acc += SampleExponential(rng, scale);
  return acc;
}

// Uniform direction on the (d-1)-sphere.
std::vector<double> SampleDirection(Rng& rng, size_t d) {
  std::vector<double> v(d);
  double norm2 = 0.0;
  do {
    norm2 = 0.0;
    for (size_t i = 0; i < d; ++i) {
      v[i] = SampleGaussian(rng, 0.0, 1.0);
      norm2 += v[i] * v[i];
    }
  } while (norm2 <= 1e-24);
  const double inv = 1.0 / std::sqrt(norm2);
  for (double& x : v) x *= inv;
  return v;
}

}  // namespace

Result<LogisticRegression> TrainObjDp(const Matrix& x, const std::vector<int>& y,
                                      const ObjDpOptions& opts, Rng& rng) {
  OSDP_RETURN_IF_ERROR(ValidateEpsilon(opts.epsilon));
  if (x.empty()) return Status::InvalidArgument("empty design matrix");
  for (const auto& row : x) {
    double norm2 = 0.0;
    for (double v : row) norm2 += v * v;
    if (norm2 > 1.0 + 1e-9) {
      return Status::InvalidArgument(
          "feature rows must lie in the unit L2 ball; call "
          "NormalizeRowsToUnitBall first");
    }
  }

  const auto n = static_cast<double>(x.size());
  LogisticRegressionOptions erm = opts.erm;
  double lambda = erm.l2_lambda;
  // Budget split per the JMLR recipe.
  double eps_prime =
      opts.epsilon -
      std::log(1.0 + 2.0 * kC / (n * lambda) + kC * kC / (n * n * lambda * lambda));
  if (eps_prime <= 0.0) {
    lambda = kC / (n * (std::exp(opts.epsilon / 4.0) - 1.0));
    eps_prime = opts.epsilon / 2.0;
    erm.l2_lambda = lambda;
  }

  const size_t d = x[0].size() + (erm.fit_intercept ? 1 : 0);
  const double norm = SampleGammaNorm(rng, d, 2.0 / eps_prime);
  std::vector<double> b = SampleDirection(rng, d);
  for (double& v : b) v *= norm;

  LogisticRegression model;
  OSDP_RETURN_IF_ERROR(model.FitPerturbed(x, y, erm, b));
  return model;
}

}  // namespace osdp
