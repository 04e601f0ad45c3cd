// Probability distributions used by the privacy mechanisms.
//
// Implemented in-house (rather than via <random>) so results are identical
// across standard-library implementations for a fixed seed, and so the noise
// distributions match the paper's definitions exactly:
//
//  * Laplace(b):        f(x) = exp(-|x|/b) / (2b)                 (Def. 2.3)
//  * OneSidedLaplace(b): f(x) = exp(x/b) / b for x <= 0, else 0   (Def. 5.1)
//    i.e. the mirrored exponential distribution; the paper writes Lap^-(λ).
// Releases do not call the Laplace samplers: they draw through the noise
// module, src/mech/noise.h, which turns (sensitivity, ε) into a draw.

#ifndef OSDP_COMMON_DISTRIBUTIONS_H_
#define OSDP_COMMON_DISTRIBUTIONS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/random.h"

namespace osdp {

/// \brief Draws from the zero-mean Laplace distribution with scale `b`.
/// Finite for every Rng output: |x| <= 53·ln2·b (the generator's (0,1]
/// lattice has spacing 2⁻⁵³, and the boundary draw u = 1.0 is clamped to the
/// adjacent cell rather than mapped to ±∞).
double SampleLaplace(Rng& rng, double b);

/// \brief Draws from the exponential distribution with scale `b` (mean `b`).
/// Finite and non-negative (never -0.0) for every Rng output: x <= 53·ln2·b.
double SampleExponential(Rng& rng, double b);

/// \brief Draws from the one-sided Laplace distribution Lap^-(b): the mirrored
/// exponential with all mass on (-inf, 0] (paper Definition 5.1).
double SampleOneSidedLaplace(Rng& rng, double b);

/// \brief Draws from the standard normal via Marsaglia polar method.
double SampleGaussian(Rng& rng, double mean, double stddev);

/// \brief Draws the number of successes among `n` Bernoulli(p) trials.
///
/// Uses exact per-trial sampling for small n, the BTPE-free normal
/// approximation (with continuity correction, clamped to [0, n]) when
/// n * p * (1-p) is large. Suitable for the multi-million record DPBench
/// scales where exact sampling would dominate runtime.
int64_t SampleBinomial(Rng& rng, int64_t n, double p);

/// \brief Draws from the geometric distribution on {0, 1, ...} with success
/// probability p: P[X = k] = (1-p)^k p.
int64_t SampleGeometric(Rng& rng, double p);

}  // namespace osdp

#endif  // OSDP_COMMON_DISTRIBUTIONS_H_
