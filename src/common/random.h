// Deterministic pseudo-random number generation for all randomized components.
//
// Every mechanism takes an explicit Rng so experiments are reproducible from a
// single seed. The generator is xoshiro256++ (public-domain algorithm by
// Blackman & Vigna), seeded via SplitMix64 so that low-entropy seeds still
// produce well-mixed state.

#ifndef OSDP_COMMON_RANDOM_H_
#define OSDP_COMMON_RANDOM_H_

#include <cstdint>
#include <limits>

namespace osdp {

/// \brief xoshiro256++ pseudo-random generator.
///
/// Satisfies the C++ UniformRandomBitGenerator concept so it can also drive
/// <random> distributions, though the library ships its own distributions
/// (see distributions.h) for reproducibility across standard libraries.
///
/// Next() is virtual so tests can substitute a stub generator that forces
/// exact boundary outputs through the samplers (see tests/stub_rng.h) —
/// e.g. the all-ones word that makes NextDoublePositive() return exactly
/// 1.0, a 2⁻⁵³-probability draw that is unreachable by seed search but very
/// much reachable over billions of production draws. Cost: Next() was
/// already an out-of-line call (no LTO), so dispatch only turns a direct
/// call indirect — ~540M draws/s raw, and the log()-bound samplers
/// (~60M Laplace draws/s) don't notice.
class Rng {
 public:
  using result_type = uint64_t;

  /// Seeds deterministically from a 64-bit seed via SplitMix64.
  explicit Rng(uint64_t seed = 0xD1B54A32D192ED03ULL);

  virtual ~Rng() = default;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<uint64_t>::max();
  }

  /// Next 64 uniformly random bits.
  virtual uint64_t Next();
  uint64_t operator()() { return Next(); }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double NextDouble();

  /// Uniform double in (0, 1] — never returns 0; safe for log().
  double NextDoublePositive();

  /// Uniform integer in [0, bound) without modulo bias. bound must be > 0.
  uint64_t NextBounded(uint64_t bound);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool NextBernoulli(double p);

  /// Forks an independent child generator; used to give each experiment
  /// repetition its own stream while keeping the parent reproducible.
  Rng Fork();

 private:
  uint64_t s_[4];
};

}  // namespace osdp

#endif  // OSDP_COMMON_RANDOM_H_
