// Policy simulators for benchmark histograms (Section 6.1.2): derive the
// non-sensitive histogram x_ns from x by biased sampling.
//
//  * MSampling ("Close" policy): x_ns is a ρ-fraction subsample whose shape
//    (domain-value mean and standard deviation of the normalized histogram)
//    stays within a 1±θ factor of x's — modelling opt-in preferences that are
//    nearly uncorrelated with the record value.
//  * HiLoSampling ("Far" policy): a random "High" region of half-width β·d is
//    oversampled by weight γ, skewing x_ns away from x — modelling privacy
//    preferences strongly correlated with the value.
//
// θ = 0.1 (with at most 50 resampling attempts), γ = 5 and β = 0.4 are fixed
// constants in sampling.cc: they are the paper's evaluation settings, every
// bench and example runs them, and the bench goldens pin their x_ns.
//
// Both produce x_ns with ‖x_ns‖₁ = round(ρ·‖x‖₁) and x_ns ≤ x per bin
// (records are either in the non-sensitive subset or not).

#ifndef OSDP_BENCHDATA_SAMPLING_H_
#define OSDP_BENCHDATA_SAMPLING_H_

#include <cstdint>

#include "src/common/random.h"
#include "src/common/result.h"
#include "src/hist/histogram.h"

namespace osdp {

/// \brief Uniform-ish subsample of x at ratio ρ whose shape stays θ-close to
/// x's (the paper's Close policy generator): up to 50 draws, returning the
/// first within θ = 0.1, else the closest.
Result<Histogram> MSampling(const Histogram& x, double rho, Rng& rng);

/// \brief Region-biased subsample of x at ratio ρ (the paper's Far policy
/// generator). A random center bin b defines High = [b - βd, b + βd]
/// (clamped, β = 0.4); records in High are drawn with weight γ = 5, others
/// with weight 1.
Result<Histogram> HiLoSampling(const Histogram& x, double rho, Rng& rng);

/// \brief Draws a subsample of exactly `m` records from histogram `x`
/// uniformly without replacement (multivariate hypergeometric; binomial
/// approximation per bin with exact-total correction). Requires m <= ‖x‖₁.
Result<Histogram> SampleWithoutReplacement(const Histogram& x, int64_t m,
                                           Rng& rng);

/// Mean of the normalized histogram viewed as a distribution over bin index.
double DomainValueMean(const Histogram& x);
/// Standard deviation of the same distribution.
double DomainValueStddev(const Histogram& x);

}  // namespace osdp

#endif  // OSDP_BENCHDATA_SAMPLING_H_
