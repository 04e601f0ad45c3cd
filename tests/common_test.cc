// Tests for src/common: Status/Result, Rng, distributions, stats, strict
// env parsing.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>

#include "bench/bench_common.h"
#include "src/common/distributions.h"
#include "src/common/env.h"
#include "src/common/random.h"
#include "src/common/result.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/mech/noise.h"
#include "tests/densities.h"
#include "tests/moments.h"
#include "tests/stub_rng.h"

namespace osdp {
namespace {

// ---------------------------------------------------------------- Status ---

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad epsilon");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad epsilon");
  EXPECT_EQ(s.ToString(), "Invalid argument: bad epsilon");
}

TEST(StatusTest, AllNamedConstructorsSetTheirCode) {
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::BudgetExhausted("x").code(), StatusCode::kBudgetExhausted);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::DeadlineExceeded("x").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Status::Cancelled("x").code(), StatusCode::kCancelled);
}

TEST(StatusTest, CodeValuesAreStable) {
  // Traces store a failed query's code as an int, so a code keeps its value
  // when another is removed.
  EXPECT_EQ(static_cast<int>(StatusCode::kOk), 0);
  EXPECT_EQ(static_cast<int>(StatusCode::kInvalidArgument), 1);
  EXPECT_EQ(static_cast<int>(StatusCode::kOutOfRange), 2);
  EXPECT_EQ(static_cast<int>(StatusCode::kNotFound), 3);
  EXPECT_EQ(static_cast<int>(StatusCode::kFailedPrecondition), 5);
  EXPECT_EQ(static_cast<int>(StatusCode::kBudgetExhausted), 6);
  EXPECT_EQ(static_cast<int>(StatusCode::kInternal), 8);
  EXPECT_EQ(static_cast<int>(StatusCode::kIOError), 10);
  EXPECT_EQ(static_cast<int>(StatusCode::kResourceExhausted), 11);
  EXPECT_EQ(static_cast<int>(StatusCode::kDeadlineExceeded), 12);
  EXPECT_EQ(static_cast<int>(StatusCode::kCancelled), 13);
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto fails = []() -> Status { return Status::Internal("boom"); };
  auto wrapper = [&]() -> Status {
    OSDP_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------- Result ---

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("gone");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, AssignOrReturnUnwraps) {
  auto makes = []() -> Result<int> { return 7; };
  auto wrapper = [&]() -> Result<int> {
    OSDP_ASSIGN_OR_RETURN(int v, makes());
    return v + 1;
  };
  EXPECT_EQ(*wrapper(), 8);
}

TEST(ResultTest, AssignOrReturnPropagatesError) {
  auto fails = []() -> Result<int> { return Status::Internal("x"); };
  auto wrapper = [&]() -> Result<int> {
    OSDP_ASSIGN_OR_RETURN(int v, fails());
    return v;
  };
  EXPECT_EQ(wrapper().status().code(), StatusCode::kInternal);
}

// ------------------------------------------------------------------- Rng ---

TEST(RngTest, DeterministicForFixedSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.Next() == b.Next()) ? 1 : 0;
  EXPECT_LT(equal, 4);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, NextDoublePositiveNeverZero) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextDoublePositive();
    EXPECT_GT(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
}

TEST(RngTest, NextBoundedCoversRangeWithoutEscaping) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.NextBounded(5);
    EXPECT_LT(v, 5u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(17);
  EXPECT_FALSE(rng.NextBernoulli(0.0));
  EXPECT_TRUE(rng.NextBernoulli(1.0));
  EXPECT_FALSE(rng.NextBernoulli(-0.5));
  EXPECT_TRUE(rng.NextBernoulli(1.5));
}

TEST(RngTest, BernoulliFrequencyMatchesP) {
  Rng rng(19);
  const int n = 100000;
  int hits = 0;
  for (int i = 0; i < n; ++i) hits += rng.NextBernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(23);
  Rng child = parent.Fork();
  // Child continues differently from the parent.
  EXPECT_NE(parent.Next(), child.Next());
}

// -------------------------------------------- sampler boundary values ------

// The all-ones word is the raw output that maps to NextDoublePositive()'s
// upper boundary; zero maps to its smallest output. The tests below push
// both extremes through every log-based sampler.
constexpr uint64_t kAllOnes = ~uint64_t{0};

TEST(StubRngTest, ReachesTheDoubleBoundaries) {
  StubRng top({kAllOnes});
  EXPECT_EQ(top.NextDoublePositive(), 1.0);
  StubRng bottom({0});
  EXPECT_EQ(bottom.NextDoublePositive(), 0x1.0p-53);
  EXPECT_EQ(bottom.NextDouble(), 0.0);
}

// Regression: SampleLaplace used to return +∞ on the u = 1.0 draw
// (log of zero); every Laplace-based mechanism would have injected infinite
// noise with probability 2⁻⁵³ per draw.
TEST(DistributionsTest, LaplaceFiniteAtBothUniformBoundaries) {
  const double b = 2.0;
  StubRng top({kAllOnes});
  const double hi = SampleLaplace(top, b);
  EXPECT_TRUE(std::isfinite(hi));
  EXPECT_GT(hi, 0.0);
  EXPECT_LE(hi, 53.0 * std::log(2.0) * b + 1e-9);  // documented cap

  StubRng bottom({0});
  const double lo = SampleLaplace(bottom, b);
  EXPECT_TRUE(std::isfinite(lo));
  EXPECT_LT(lo, 0.0);
  EXPECT_GE(lo, -53.0 * std::log(2.0) * b - 1e-9);
}

TEST(DistributionsTest, LaplaceFiniteForRandomStreams) {
  // Belt and braces over the ordinary generator: no draw is ever non-finite.
  Rng rng(97);
  for (int i = 0; i < 100000; ++i) {
    EXPECT_TRUE(std::isfinite(SampleLaplace(rng, 0.5)));
  }
}

TEST(DistributionsTest, ExponentialBoundariesFiniteAndNonNegative) {
  StubRng top({kAllOnes});  // u = 1.0 → the distribution's infimum 0
  const double zero = SampleExponential(top, 3.0);
  EXPECT_EQ(zero, 0.0);
  EXPECT_FALSE(std::signbit(zero)) << "must not leak -0.0";

  StubRng bottom({0});  // u = 2⁻⁵³ → the documented 53·ln2·b cap
  const double hi = SampleExponential(bottom, 3.0);
  EXPECT_TRUE(std::isfinite(hi));
  EXPECT_NEAR(hi, 53.0 * std::log(2.0) * 3.0, 1e-9);
}

TEST(DistributionsTest, OneSidedLaplaceBoundaryIsFinite) {
  StubRng bottom({0});
  const double v = SampleOneSidedLaplace(bottom, 1.0);
  EXPECT_TRUE(std::isfinite(v));
  EXPECT_LE(v, 0.0);
}

TEST(DistributionsTest, GeometricBoundarySaturatesInsteadOfOverflowing) {
  // log(2⁻⁵³)/log1p(-p) overflows int64 for tiny p; the cast used to be UB.
  StubRng bottom({0});
  EXPECT_EQ(SampleGeometric(bottom, 1e-300),
            std::numeric_limits<int64_t>::max());
  StubRng top({kAllOnes});  // u = 1.0 → k = 0
  EXPECT_EQ(SampleGeometric(top, 0.25), 0);
}

// ----------------------------------------------------------- Laplace etc ---

TEST(DistributionsTest, LaplaceMeanAndVariance) {
  Rng rng(31);
  const double b = 2.0;
  Moments stats;
  for (int i = 0; i < 200000; ++i) stats.Add(SampleLaplace(rng, b));
  EXPECT_NEAR(stats.mean(), 0.0, 0.05);
  // Var[Lap(b)] = 2b².
  EXPECT_NEAR(stats.sample_variance(), 2 * b * b, 0.2);
}

TEST(DistributionsTest, LaplaceAbsMeanIsScale) {
  Rng rng(37);
  const double b = 3.0;
  Moments stats;
  for (int i = 0; i < 200000; ++i) stats.Add(std::abs(SampleLaplace(rng, b)));
  EXPECT_NEAR(stats.mean(), b, 0.05);
}

TEST(DistributionsTest, ExponentialMeanIsScale) {
  Rng rng(41);
  const double b = 1.5;
  Moments stats;
  for (int i = 0; i < 200000; ++i) stats.Add(SampleExponential(rng, b));
  EXPECT_NEAR(stats.mean(), b, 0.03);
}

TEST(DistributionsTest, OneSidedLaplaceIsNonPositive) {
  Rng rng(43);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LE(SampleOneSidedLaplace(rng, 1.0), 0.0);
  }
}

TEST(DistributionsTest, OneSidedLaplaceHasHalfLaplaceVariance) {
  // Var[Lap⁻(b)] = b² = Var[Lap(b)] / 2 — the first factor-of-2 the paper
  // cites in the 1/8-variance claim of Section 5.1.
  Rng rng(47);
  const double b = 1.0;
  Moments stats;
  for (int i = 0; i < 300000; ++i) stats.Add(SampleOneSidedLaplace(rng, b));
  EXPECT_NEAR(stats.mean(), -b, 0.02);
  EXPECT_NEAR(stats.sample_variance(), b * b, 0.05);
}

TEST(DistributionsTest, GaussianMoments) {
  Rng rng(53);
  Moments stats;
  for (int i = 0; i < 200000; ++i) stats.Add(SampleGaussian(rng, 5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.05);
  EXPECT_NEAR(std::sqrt(stats.sample_variance()), 2.0, 0.05);
}

TEST(DistributionsTest, BinomialEdgeCases) {
  Rng rng(59);
  EXPECT_EQ(SampleBinomial(rng, 0, 0.5), 0);
  EXPECT_EQ(SampleBinomial(rng, 100, 0.0), 0);
  EXPECT_EQ(SampleBinomial(rng, 100, 1.0), 100);
}

TEST(DistributionsTest, BinomialSmallNMatchesMean) {
  Rng rng(61);
  const int64_t n = 20;
  const double p = 0.35;
  Moments stats;
  for (int i = 0; i < 100000; ++i) {
    stats.Add(static_cast<double>(SampleBinomial(rng, n, p)));
  }
  EXPECT_NEAR(stats.mean(), n * p, 0.1);
  EXPECT_NEAR(stats.sample_variance(), n * p * (1 - p), 0.2);
}

TEST(DistributionsTest, BinomialLargeNNormalApproxMatchesMoments) {
  Rng rng(67);
  const int64_t n = 1000000;
  const double p = 0.25;
  Moments stats;
  for (int i = 0; i < 20000; ++i) {
    const int64_t k = SampleBinomial(rng, n, p);
    EXPECT_GE(k, 0);
    EXPECT_LE(k, n);
    stats.Add(static_cast<double>(k));
  }
  EXPECT_NEAR(stats.mean() / (n * p), 1.0, 0.001);
  EXPECT_NEAR(stats.sample_variance() / (n * p * (1 - p)), 1.0, 0.05);
}

TEST(DistributionsTest, BinomialHighPUsesSymmetry) {
  Rng rng(71);
  const int64_t n = 50;
  const double p = 0.9;
  Moments stats;
  for (int i = 0; i < 100000; ++i) {
    stats.Add(static_cast<double>(SampleBinomial(rng, n, p)));
  }
  EXPECT_NEAR(stats.mean(), n * p, 0.1);
}

TEST(DistributionsTest, GeometricMean) {
  Rng rng(73);
  const double p = 0.2;
  Moments stats;
  for (int i = 0; i < 200000; ++i) {
    stats.Add(static_cast<double>(SampleGeometric(rng, p)));
  }
  // E[Geom₀(p)] = (1-p)/p = 4.
  EXPECT_NEAR(stats.mean(), (1 - p) / p, 0.1);
}

TEST(DistributionsTest, AnalyticDensities) {
  EXPECT_NEAR(LaplacePdf(0.0, 2.0), 0.25, 1e-12);
  EXPECT_NEAR(LaplaceCdf(0.0, 2.0), 0.5, 1e-12);
  EXPECT_NEAR(LaplaceCdf(-1e9, 2.0), 0.0, 1e-12);
  EXPECT_NEAR(LaplaceCdf(1e9, 2.0), 1.0, 1e-12);
  EXPECT_EQ(OneSidedLaplacePdf(0.5, 1.0), 0.0);
  EXPECT_NEAR(OneSidedLaplacePdf(0.0, 1.0), 1.0, 1e-12);
  EXPECT_NEAR(OneSidedLaplaceCdf(0.0, 1.0), 1.0, 1e-12);
  EXPECT_NEAR(OneSidedLaplaceCdf(OneSidedMedian(1, 1.0), 1.0), 0.5, 1e-12);
}

// DP core property of the noise: likelihood ratio between outputs from
// neighboring inputs is bounded by e^(Δ/b) — verified analytically via PDFs.
TEST(DistributionsTest, LaplaceLikelihoodRatioBound) {
  const double b = 2.0;     // scale = sensitivity / epsilon
  const double delta = 2.0; // histogram sensitivity
  const double eps = delta / b;
  for (double y = -10; y <= 10; y += 0.25) {
    const double ratio = LaplacePdf(y - 0.0, b) / LaplacePdf(y - delta, b);
    EXPECT_LE(ratio, std::exp(eps) + 1e-9);
    EXPECT_GE(ratio, std::exp(-eps) - 1e-9);
  }
}

// ----------------------------------------------------------------- Stats ---

TEST(StatsTest, Mean) {
  std::vector<double> xs = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> xs = {4, 1, 3, 2};  // unsorted on purpose
  EXPECT_DOUBLE_EQ(Percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 50), 2.5);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 95), 7.0);
}

TEST(StatsTest, MomentsMatchClosedForm) {
  // The textbook sample: mean 5, population variance 4, sample variance 32/7.
  std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  Moments m;
  for (double x : xs) m.Add(x);
  EXPECT_EQ(m.count(), xs.size());
  EXPECT_NEAR(m.mean(), Mean(xs), 1e-12);
  EXPECT_NEAR(m.population_variance(), 4.0, 1e-12);
  EXPECT_NEAR(m.sample_variance(), 32.0 / 7.0, 1e-12);
}

// ------------------------------------------------------ strict env parse ---

TEST(ParseEnvTest, Int64AcceptsExactlyOneIntegerWithSurroundingWhitespace) {
  long long v = -1;
  EXPECT_TRUE(ParseInt64Strict("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt64Strict("  -7  ", &v));
  EXPECT_EQ(v, -7);
  EXPECT_TRUE(ParseInt64Strict("0", &v));
  EXPECT_EQ(v, 0);
}

TEST(ParseEnvTest, Int64RejectsGarbageWithoutTouchingOutput) {
  long long v = 1234;
  EXPECT_FALSE(ParseInt64Strict(nullptr, &v));
  EXPECT_FALSE(ParseInt64Strict("", &v));
  EXPECT_FALSE(ParseInt64Strict("  ", &v));
  EXPECT_FALSE(ParseInt64Strict("garbage", &v));
  EXPECT_FALSE(ParseInt64Strict("7junk", &v));  // atoi would say 7
  EXPECT_FALSE(ParseInt64Strict("2.5", &v));
  EXPECT_FALSE(ParseInt64Strict("0x10", &v));
  EXPECT_FALSE(ParseInt64Strict("99999999999999999999999", &v));
  EXPECT_EQ(v, 1234);  // untouched on every failure
}

TEST(ParseEnvTest, DoubleAcceptsFiniteValuesOnly) {
  double v = -1.0;
  EXPECT_TRUE(ParseDoubleStrict("0.02", &v));
  EXPECT_DOUBLE_EQ(v, 0.02);
  EXPECT_TRUE(ParseDoubleStrict(" 1.5e0 ", &v));
  EXPECT_DOUBLE_EQ(v, 1.5);
  EXPECT_TRUE(ParseDoubleStrict("0", &v));
  EXPECT_DOUBLE_EQ(v, 0.0);
  EXPECT_FALSE(ParseDoubleStrict("0.02x", &v));  // atof would say 0.02
  EXPECT_FALSE(ParseDoubleStrict("garbage", &v));
  EXPECT_FALSE(ParseDoubleStrict("inf", &v));
  EXPECT_FALSE(ParseDoubleStrict("nan", &v));
  EXPECT_FALSE(ParseDoubleStrict("1e999", &v));
  EXPECT_FALSE(ParseDoubleStrict(nullptr, &v));
  EXPECT_DOUBLE_EQ(v, 0.0);  // untouched since the last success
}

TEST(ParseEnvTest, BenchRepsFallsBackOnGarbage) {
  // bench::Reps parsed OSDP_BENCH_REPS with raw atoi pre-fix: "7junk" ran 7
  // reps instead of the bench's documented default. This test fails at the
  // pre-fix commit.
  ASSERT_EQ(::setenv("OSDP_BENCH_REPS", "7junk", 1), 0);
  EXPECT_EQ(bench::Reps(5), 5);
  ASSERT_EQ(::setenv("OSDP_BENCH_REPS", "garbage", 1), 0);
  EXPECT_EQ(bench::Reps(5), 5);
  ASSERT_EQ(::setenv("OSDP_BENCH_REPS", "-3", 1), 0);
  EXPECT_EQ(bench::Reps(5), 5);  // non-positive → fallback, as documented
  ASSERT_EQ(::setenv("OSDP_BENCH_REPS", "12", 1), 0);
  EXPECT_EQ(bench::Reps(5), 12);
  ASSERT_EQ(::unsetenv("OSDP_BENCH_REPS"), 0);
  EXPECT_EQ(bench::Reps(5), 5);
}

TEST(ParseEnvTest, BenchGateFallsBackOnGarbageAndNegatives) {
  // The bench_ingest / bench_obs_overhead regression gates read their
  // thresholds through the same strict path: a typo must tighten to the
  // documented default, never to atof's silent 0.0 (which would gate
  // *everything* out).
  ASSERT_EQ(::setenv("OSDP_TEST_GATE", "0.02x", 1), 0);
  EXPECT_DOUBLE_EQ(bench::EnvGate("OSDP_TEST_GATE", 1.5), 1.5);
  ASSERT_EQ(::setenv("OSDP_TEST_GATE", "-0.5", 1), 0);
  EXPECT_DOUBLE_EQ(bench::EnvGate("OSDP_TEST_GATE", 1.5), 1.5);
  ASSERT_EQ(::setenv("OSDP_TEST_GATE", "0.25", 1), 0);
  EXPECT_DOUBLE_EQ(bench::EnvGate("OSDP_TEST_GATE", 1.5), 0.25);
  ASSERT_EQ(::unsetenv("OSDP_TEST_GATE"), 0);
  EXPECT_DOUBLE_EQ(bench::EnvGate("OSDP_TEST_GATE", 1.5), 1.5);
}

}  // namespace
}  // namespace osdp
