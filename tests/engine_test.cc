// Tests for src/core: OsdpEngine's construction checks, and the mechanism
// catalog it forwards to — the input declaration (InputsOf), ε validation,
// and one dispatch shared with the regret suites. Budgeted releases go
// through QueryService and are tested in query_service_test.cc.

#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/check.h"
#include "src/core/engine.h"
#include "src/hist/histogram_query.h"
#include "src/mech/histogram_mechanism.h"
#include "src/runtime/thread_pool.h"
#include "tests/table_rows.h"

namespace osdp {
namespace {

Table MakeData(int n = 4000, uint64_t seed = 5) {
  Rng rng(seed);
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back({Value(static_cast<int64_t>(rng.NextBounded(100))),
                    Value(static_cast<int64_t>(rng.NextBernoulli(0.8) ? 1 : 0))});
  }
  return TableFromRows(
      Schema({{"age", ValueType::kInt64}, {"opt_in", ValueType::kInt64}}),
      rows);
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

  // A valid input is classified once, into generation 0: its mask equals the
  // policy's whole-table classification bit for bit, including at the word
  // (64-row) and chunk edges.
  const Policy policy = Policy::SensitiveWhen(
      Predicate::Or(Predicate::Eq("opt_in", Value(0)),
                    Predicate::Lt("age", Value(30))),
      "P_opt_or_young");
  for (int n : {1, 63, 64, 65, 4095, 4096, 4097}) {
    const Table data = MakeData(n, /*seed=*/n);
    const auto engine = OsdpEngine::Create(data, policy, opts);
    ASSERT_TRUE(engine.ok()) << n;
    EXPECT_EQ(engine->snapshot()->generation, 0u) << n;
    EXPECT_EQ(engine->snapshot()->table.num_rows(), static_cast<size_t>(n));
    EXPECT_EQ(engine->snapshot()->non_sensitive,
              policy.NonSensitiveRowMask(data))
        << n;
  }
}

TEST(EngineTest, CreateRefusesAPolicyThatDoesNotTypeCheck) {
  // An untrusted policy is a Status, never an abort in the classification
  // scan.
  const auto unknown_column = OsdpEngine::Create(
      MakeData(),
      Policy::SensitiveWhen(Predicate::Eq("no_such_column", Value(0))),
      OsdpEngine::Options{});
  ASSERT_FALSE(unknown_column.ok());
  EXPECT_EQ(unknown_column.status().code(), StatusCode::kNotFound);

  const auto mixed_types = OsdpEngine::Create(
      MakeData(), Policy::SensitiveWhen(Predicate::Eq("age", Value("old"))),
      OsdpEngine::Options{});
  ASSERT_FALSE(mixed_types.ok());
  EXPECT_EQ(mixed_types.status().code(), StatusCode::kInvalidArgument);
}

// The service computes only the histograms InputsOf declares and passes
// zeros for the rest, so a wrong entry would silently feed a mechanism
// zeros. Pin both directions for every mechanism: an undeclared input never
// reaches the output, and a declared one always does.
TEST(EngineTest, InputsOfDeclaresExactlyWhatEachMechanismReads) {
  const OsdpEngine engine =
      *OsdpEngine::Create(MakeData(), OptOutSensitive(), OsdpEngine::Options{});
  const Snapshot& snap = *engine.snapshot();
  const Histogram x = *ComputeHistogram(snap.table, AgeQuery());
  const Histogram xns =
      *ComputeHistogramMasked(snap.table, AgeQuery(), snap.non_sensitive);
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

// Every mechanism — each catalog entry through the engine and every member
// of both regret suites — refuses a non-positive or non-finite ε with
// InvalidArgument. NaN and +inf used to pass `ε <= 0` and abort inside the
// noise samplers.
TEST(EngineTest, EveryMechanismRefusesNonPositiveOrNonFiniteEpsilon) {
  const OsdpEngine engine =
      *OsdpEngine::Create(MakeData(), OptOutSensitive(), OsdpEngine::Options{});
  const Histogram x(std::vector<double>(64, 5.0));
  const Histogram xns(std::vector<double>(64, 3.0));
  std::vector<std::unique_ptr<HistogramMechanism>> suites = StandardSuite();
  for (auto& mech : ExtendedSuite()) suites.push_back(std::move(mech));

  for (double bad : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(bad);
    for (EngineMechanism m : kAllMechanisms) {
      Rng rng(1);
      const Result<Histogram> out = engine.RunMechanism(x, xns, bad, m, rng);
      ASSERT_FALSE(out.ok()) << EngineMechanismToString(m);
      EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument)
          << EngineMechanismToString(m);
    }
    for (const auto& mech : suites) {
      Rng rng(1);
      const Result<Histogram> out = mech->Run(x, xns, bad, rng);
      ASSERT_FALSE(out.ok()) << mech->name();
      EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument)
          << mech->name();
    }
  }
}

// The service (through OsdpEngine::RunMechanism) and the regret suites run
// one dispatch: for each catalog mechanism the engine, with or without a
// mechanism pool, gives the same bits as the suite entry of the same name.
// d = 2048 puts DAWA's interval-cost engine build on the pool.
TEST(EngineTest, RunMechanismMatchesTheSuiteEntryBitForBit) {
  OsdpEngine serial =
      *OsdpEngine::Create(MakeData(), OptOutSensitive(), OsdpEngine::Options{});
  OsdpEngine pooled = serial;
  ThreadPool pool(3);
  pooled.set_mech_pool(&pool);

  constexpr size_t kBins = 2048;
  Rng data(0xB175);
  Histogram x(kBins), xns(kBins);
  for (size_t i = 0; i < kBins; ++i) {
    x[i] = i % 5 == 0 ? 0.0 : static_cast<double>(data.NextBounded(60));
    xns[i] = static_cast<double>(data.NextBounded(
        static_cast<uint64_t>(x[i]) + 1));
  }
  const auto suite = ExtendedSuite();

  for (EngineMechanism m : kAllMechanisms) {
    SCOPED_TRACE(EngineMechanismToString(m));
    const HistogramMechanism* entry = nullptr;
    for (const auto& mech : suite) {
      if (mech->name() == EngineMechanismToString(m)) entry = mech.get();
    }
    ASSERT_NE(entry, nullptr) << "no suite entry";
    for (uint64_t seed : {1u, 2u, 3u}) {
      Rng rng_suite(seed), rng_serial(seed), rng_pooled(seed);
      const Result<Histogram> want = entry->Run(x, xns, 0.5, rng_suite);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      const Result<Histogram> got_serial =
          serial.RunMechanism(x, xns, 0.5, m, rng_serial);
      const Result<Histogram> got_pooled =
          pooled.RunMechanism(x, xns, 0.5, m, rng_pooled);
      ASSERT_TRUE(got_serial.ok() && got_pooled.ok());
      EXPECT_EQ(got_serial->counts(), want->counts()) << seed;
      EXPECT_EQ(got_pooled->counts(), want->counts()) << seed;
    }
  }
}

}  // namespace
}  // namespace osdp
