// Running mean and variance of a stream of draws (Welford's update), for the
// noise-moment checks: a sampler's first two moments against their closed
// forms.

#ifndef OSDP_TESTS_MOMENTS_H_
#define OSDP_TESTS_MOMENTS_H_

#include <cstddef>

namespace osdp {

class Moments {
 public:
  /// Adds one observation.
  void Add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }
  /// Number of observations so far.
  size_t count() const { return n_; }
  /// Mean of the observations; 0 when empty.
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (divides by N-1); 0 with fewer than 2 observations.
  double sample_variance() const { return n_ > 1 ? m2_ / (n_ - 1) : 0.0; }
  /// Population variance (divides by N); 0 when empty.
  double population_variance() const { return n_ ? m2_ / n_ : 0.0; }

 private:
  size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

}  // namespace osdp

#endif  // OSDP_TESTS_MOMENTS_H_
