// ObjDP: differentially private logistic regression via objective
// perturbation (Chaudhuri, Monteleoni & Sarwate, JMLR 2011) — the ε-DP
// classification baseline of Section 6.3.1.
//
// The ERM objective gains a random linear term bᵀw/n with ‖b‖ drawn from
// Γ(d, 2/ε') and uniform direction. For logistic loss (curvature constant
// c = 1/4) the usable budget is ε' = ε - ln(1 + 2c/(nλ) + c²/(n²λ²)); when
// that is non-positive the regularizer is raised to λ = c/(n(e^{ε/4} - 1))
// and ε' = ε/2, exactly per the cited recipe. Feature rows must lie in the
// unit L2 ball (call NormalizeRowsToUnitBall first).

#ifndef OSDP_ML_OBJDP_H_
#define OSDP_ML_OBJDP_H_

#include "src/common/random.h"
#include "src/common/result.h"
#include "src/mech/guarantee.h"
#include "src/ml/logistic_regression.h"

namespace osdp {

/// ObjDP training options.
struct ObjDpOptions {
  double epsilon = 1.0;
  /// Base ERM options; l2_lambda may be raised by the privacy calibration.
  LogisticRegressionOptions erm;
};

/// \brief Trains an ε-DP logistic regression on (x, y). Rows of `x` must
/// have L2 norm at most 1; rows violating this are rejected.
Result<LogisticRegression> TrainObjDp(const Matrix& x, const std::vector<int>& y,
                                      const ObjDpOptions& opts, Rng& rng);

}  // namespace osdp

#endif  // OSDP_ML_OBJDP_H_
