#include "src/mech/noise.h"

#include <cmath>

#include "src/common/distributions.h"

namespace osdp {

namespace {

// Δ/ε; the samplers check that it is positive.
double Scale(int64_t sensitivity, double epsilon) {
  return static_cast<double>(sensitivity) / epsilon;
}

}  // namespace

void AddLaplace(std::vector<double>& values, int64_t sensitivity,
                double epsilon, Rng& rng) {
  const double b = Scale(sensitivity, epsilon);
  for (double& v : values) v += SampleLaplace(rng, b);
}

void AddOneSided(std::vector<double>& values, int64_t sensitivity,
                 double epsilon, Rng& rng) {
  const double b = Scale(sensitivity, epsilon);
  for (double& v : values) v += SampleOneSidedLaplace(rng, b);
}

double DrawLaplace(int64_t sensitivity, double epsilon, Rng& rng) {
  return SampleLaplace(rng, Scale(sensitivity, epsilon));
}

double DrawOneSided(int64_t sensitivity, double epsilon, Rng& rng) {
  return SampleOneSidedLaplace(rng, Scale(sensitivity, epsilon));
}

double OneSidedMedian(int64_t sensitivity, double epsilon) {
  return -std::log(2.0) * Scale(sensitivity, epsilon);
}

}  // namespace osdp
