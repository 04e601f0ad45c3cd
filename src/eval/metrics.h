// Error metrics of Section 6.2: MRE, per-bin relative error (Rel50/Rel95),
// and L1 error, exactly as the paper defines them. The relative errors floor
// their denominator at δ = 1 (kRelativeErrorFloor in metrics.cc), the
// paper's value: every figure it reports uses it.

#ifndef OSDP_EVAL_METRICS_H_
#define OSDP_EVAL_METRICS_H_

#include <vector>

#include "src/hist/histogram.h"
#include "src/hist/sparse_histogram.h"

namespace osdp {

/// Mean relative error: (1/d) Σ_i |x_i - x̃_i| / max(x_i, δ).
double MeanRelativeError(const Histogram& truth, const Histogram& estimate);

/// The p-th percentile of the per-bin relative error (Rel50, Rel95, ...).
double RelativeErrorPercentile(const Histogram& truth,
                               const Histogram& estimate, double percentile);

/// Σ_i |x_i - x̃_i|.
double L1Error(const Histogram& truth, const Histogram& estimate);

/// \brief MRE between sparse histograms over a huge domain, with analytic
/// accounting for unmaterialized cells (Section 6.3.2): cells absent from
/// both truth and estimate contribute `implicit_zero_error` each — e.g. the
/// expected |Laplace noise| that would have been added to a zero count, or 0
/// for mechanisms that output exact zeros there.
double SparseMeanRelativeError(const SparseHistogram& truth,
                               const SparseHistogram& estimate,
                               double implicit_zero_error);

/// \brief MRE restricted to the cells carrying true mass (the support).
/// This is the view in which the paper's per-policy n-gram bars live: it
/// measures how well the mechanism reports the n-grams that actually
/// occurred, independently of the astronomical zero tail.
double SparseSupportMeanRelativeError(const SparseHistogram& truth,
                                      const SparseHistogram& estimate);

}  // namespace osdp

#endif  // OSDP_EVAL_METRICS_H_
