// Tests for src/core: OsdpEngine's construction checks and the mechanism
// catalog's input declaration (InputsOf). Budgeted releases go through
// QueryService and are tested in query_service_test.cc.

#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/check.h"
#include "src/core/engine.h"
#include "src/hist/histogram_query.h"

namespace osdp {
namespace {

Table MakeData(int n = 4000, uint64_t seed = 5) {
  Table t(Schema({{"age", ValueType::kInt64}, {"opt_in", ValueType::kInt64}}));
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    OSDP_CHECK(t.AppendRow({Value(static_cast<int64_t>(rng.NextBounded(100))),
                            Value(static_cast<int64_t>(
                                rng.NextBernoulli(0.8) ? 1 : 0))})
                   .ok());
  }
  return t;
}

Policy OptOutSensitive() {
  return Policy::SensitiveWhen(Predicate::Eq("opt_in", Value(0)), "P_opt");
}

HistogramQuery AgeQuery() {
  return HistogramQuery{"age", *Domain1D::Numeric(0, 100, 10), std::nullopt};
}

constexpr EngineMechanism kAllMechanisms[] = {
    EngineMechanism::kLaplace,       EngineMechanism::kOsdpLaplace,
    EngineMechanism::kOsdpLaplaceL1, EngineMechanism::kDawa,
    EngineMechanism::kDawaz,         EngineMechanism::kHierarchical};

TEST(EngineTest, CreateValidates) {
  OsdpEngine::Options opts;
  for (double bad : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    opts.total_epsilon = bad;
    const auto engine =
        OsdpEngine::Create(MakeData(), OptOutSensitive(), opts);
    ASSERT_FALSE(engine.ok()) << bad;
    EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  opts.total_epsilon = 1.0;
  Table empty(Schema({{"a", ValueType::kInt64}}));
  EXPECT_FALSE(OsdpEngine::Create(std::move(empty), OptOutSensitive(), opts).ok());
}

// The service computes only the histograms InputsOf declares and passes
// zeros for the rest, so a wrong entry would silently feed a mechanism
// zeros. Pin both directions for every mechanism: an undeclared input never
// reaches the output, and a declared one always does.
TEST(EngineTest, InputsOfDeclaresExactlyWhatEachMechanismReads) {
  const OsdpEngine engine =
      *OsdpEngine::Create(MakeData(), OptOutSensitive(), OsdpEngine::Options{});
  const Histogram x = *ComputeHistogram(engine.data(), AgeQuery());
  const Histogram xns = *ComputeHistogramMasked(engine.data(), AgeQuery(),
                                                engine.non_sensitive_mask());
  const Histogram zeros(x.size());
  // x_ns ≤ x stays true for both changes, as DAWAz requires.
  Histogram x_changed = x;
  for (size_t i = 0; i < x_changed.size(); ++i) x_changed[i] += 100.0 * (i + 1);
  const Histogram& xns_changed = zeros;

  constexpr double kEps = 1.0;
  constexpr uint64_t kSeed = 0x1A7;
  for (EngineMechanism m : kAllMechanisms) {
    SCOPED_TRACE(EngineMechanismToString(m));
    const auto run = [&](const Histogram& in_x, const Histogram& in_xns) {
      Rng rng(kSeed);
      return engine.RunMechanism(in_x, in_xns, kEps, m, rng);
    };
    const Result<Histogram> base = run(x, xns);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    // A refused run (e.g. DAWAz given x_ns > x) counts as a changed output.
    const auto same_as_base = [&](const Histogram& in_x,
                                  const Histogram& in_xns) {
      const Result<Histogram> out = run(in_x, in_xns);
      return out.ok() && out->counts() == base->counts();
    };

    const MechanismInputs inputs = InputsOf(m);
    EXPECT_TRUE(inputs.x || inputs.xns) << "a mechanism must read something";
    if (inputs.x) {
      EXPECT_FALSE(same_as_base(x_changed, xns)) << "declared x was not read";
    } else {
      EXPECT_TRUE(same_as_base(zeros, xns)) << "undeclared x was read";
    }
    if (inputs.xns) {
      EXPECT_FALSE(same_as_base(x, xns_changed))
          << "declared x_ns was not read";
    } else {
      EXPECT_TRUE(same_as_base(x, zeros)) << "undeclared x_ns was read";
    }
  }
}

}  // namespace
}  // namespace osdp
