// The noise module: the one place a release turns ε into noise. A DP release
// of a statistic with integer L1 sensitivity Δ adds Lap(Δ/ε) to each value
// (Definition 2.5); an OSDP release of x_ns adds Lap⁻(Δ/ε) (Definitions
// 5.1–5.2). Every mechanism and the QueryService count path draw here. The
// module is keyed by (Δ, ε), not by a scale, so that a sampler can use the
// integer Δ. Callers validate ε; Δ must be at least 1.

#ifndef OSDP_MECH_NOISE_H_
#define OSDP_MECH_NOISE_H_

#include <cstdint>
#include <vector>

#include "src/common/random.h"

namespace osdp {

/// Adds an independent Lap(Δ/ε) (AddLaplace) or Lap⁻(Δ/ε) (AddOneSided) draw
/// to every value, in index order.
void AddLaplace(std::vector<double>& values, int64_t sensitivity,
                double epsilon, Rng& rng);
void AddOneSided(std::vector<double>& values, int64_t sensitivity,
                 double epsilon, Rng& rng);

/// One Lap(Δ/ε) or Lap⁻(Δ/ε) draw, for a single value or a site whose draw
/// order depends on the data.
double DrawLaplace(int64_t sensitivity, double epsilon, Rng& rng);
double DrawOneSided(int64_t sensitivity, double epsilon, Rng& rng);

/// Median of Lap⁻(Δ/ε), -ln(2)·Δ/ε: OsdpLaplaceL1's debias constant.
double OneSidedMedian(int64_t sensitivity, double epsilon);

}  // namespace osdp

#endif  // OSDP_MECH_NOISE_H_
