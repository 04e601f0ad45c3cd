// Small statistics helpers for the evaluation metrics.

#ifndef OSDP_COMMON_STATS_H_
#define OSDP_COMMON_STATS_H_

#include <cstddef>
#include <vector>

namespace osdp {

/// Arithmetic mean; 0 for empty input.
double Mean(const std::vector<double>& xs);

/// \brief p-th percentile with linear interpolation, p in [0, 100].
///
/// Matches numpy.percentile(..., interpolation="linear"), the convention the
/// paper's Rel50/Rel95 metrics use. Input need not be sorted. Aborts on empty
/// input.
double Percentile(std::vector<double> xs, double p);

}  // namespace osdp

#endif  // OSDP_COMMON_STATS_H_
