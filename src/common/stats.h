// Small statistics helpers shared by evaluation code and tests.

#ifndef OSDP_COMMON_STATS_H_
#define OSDP_COMMON_STATS_H_

#include <cstddef>
#include <vector>

namespace osdp {

/// Arithmetic mean; 0 for empty input.
double Mean(const std::vector<double>& xs);

/// Population variance (divides by N); 0 for inputs of size < 1.
double Variance(const std::vector<double>& xs);

/// Population standard deviation.
double Stddev(const std::vector<double>& xs);

/// \brief p-th percentile with linear interpolation, p in [0, 100].
///
/// Matches numpy.percentile(..., interpolation="linear"), the convention the
/// paper's Rel50/Rel95 metrics use. Input need not be sorted. Aborts on empty
/// input.
double Percentile(std::vector<double> xs, double p);

/// Median (50th percentile).
double Median(std::vector<double> xs);

/// \brief Welford online accumulator for mean/variance of a stream.
class RunningStats {
 public:
  /// Adds one observation.
  void Add(double x);
  /// Number of observations so far.
  size_t count() const { return n_; }
  /// Mean of observations; 0 when empty.
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (divides by N-1); 0 when fewer than 2 observations.
  double sample_variance() const { return n_ > 1 ? m2_ / (n_ - 1) : 0.0; }
  /// Population variance (divides by N); 0 when empty.
  double population_variance() const { return n_ ? m2_ / n_ : 0.0; }

 private:
  size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

}  // namespace osdp

#endif  // OSDP_COMMON_STATS_H_
