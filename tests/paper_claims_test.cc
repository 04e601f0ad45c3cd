// The paper-claims gate: the claims the paper's tables and figures make,
// asserted from the numbers the bench binaries print. The regret claims
// (Figures 6-10) read RegretTable in bench/bench_dpbench_common.h — the
// function every bench_fig* binary prints from — with each figure's own
// suite, inputs and rows at OSDP_BENCH_REPS=1, so the gate and the figures
// cannot drift. Every claim is an ordering or a ratio with a margin, never a
// bit pattern: a change to the noise samplers changes every released bit
// and must still pass.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_dpbench_common.h"
#include "src/common/random.h"
#include "src/eval/metrics.h"
#include "src/mech/laplace.h"
#include "src/mech/osdp_rr.h"
#include "src/mech/suppress.h"

namespace osdp {
namespace {

using bench::BuildInputs;
using bench::DPBenchInput;
using bench::RatioRows;
using bench::RegretFilter;
using bench::RegretRow;
using bench::RegretTable;

constexpr int kReps = 1;

// Each figure's inputs, built once: BuildInputs(min_rho) draws the non-
// sensitive samples in grid order, so a figure that trims the grid sees
// other samples than one that does not.
const std::vector<DPBenchInput>& Inputs(double min_rho) {
  if (min_rho == 0.25) {
    static const std::vector<DPBenchInput> from25 = BuildInputs(0.25);
    return from25;
  }
  if (min_rho == 0.5) {
    static const std::vector<DPBenchInput> from50 = BuildInputs(0.5);
    return from50;
  }
  static const std::vector<DPBenchInput> all = BuildInputs();
  return all;
}

// The row of `rows` labelled `label`.
RegretRow Row(const std::vector<RegretRow>& rows, const std::string& label) {
  for (const RegretRow& row : rows) {
    if (row.first == label) return row;
  }
  ADD_FAILURE() << "no row " << label;
  return rows.front();
}

TEST(PaperClaimsTest, Table1ReleaseRateIsOneMinusExpMinusEpsilon) {
  // OsdpRR releases each non-sensitive record with probability 1 - e^-ε:
  // ~63% / ~39% / ~9.5% at ε = 1 / 0.5 / 0.1.
  constexpr double kRecords = 1e6;
  Rng rng(1);
  const Histogram xns(std::vector<double>(1, kRecords));
  for (double eps : {1.0, 0.5, 0.1}) {
    const double p = 1.0 - std::exp(-eps);
    EXPECT_NEAR(OsdpRRReleaseProbability(eps), p, 1e-12);
    const double rate = (*OsdpRRHistogram(xns, eps, rng))[0] / kRecords;
    // Four binomial standard deviations.
    EXPECT_NEAR(rate, p, 4.0 * std::sqrt(p * (1.0 - p) / kRecords))
        << "eps " << eps;
  }
}

TEST(PaperClaimsTest, Theorem51OsdpRRLosesToLaplaceIffNEpsAbove2DExpEps) {
  // Uniform histograms with every record non-sensitive (OsdpRR's best
  // case), on both sides of the frontier and well away from it.
  struct Case {
    double n;
    size_t d;
    double eps;
  };
  const Case cases[] = {{1e6, 16, 1.0},   {1e6, 1024, 0.1},  // Laplace wins
                        {100, 512, 1.0},  {1e3, 1024, 0.1}};  // OsdpRR wins
  Rng rng(31);
  for (const Case& c : cases) {
    const bool laplace_wins =
        c.n * c.eps > 2.0 * static_cast<double>(c.d) * std::exp(c.eps);
    EXPECT_EQ(OsdpRRExpectedL1Error(c.n, c.n, c.eps) >
                  LaplaceExpectedL1Error(c.d, c.eps),
              laplace_wins);
    Histogram x(c.d);
    for (size_t i = 0; i < c.d; ++i) x[i] = c.n / static_cast<double>(c.d);
    const double rr = L1Error(x, *OsdpRRHistogram(x, c.eps, rng));
    const double lap = L1Error(x, *LaplaceMechanism(x, c.eps, rng));
    // The winner's L1 error is at most half the loser's.
    if (laplace_wins) {
      EXPECT_LT(2.0 * lap, rr) << "n " << c.n << " d " << c.d;
    } else {
      EXPECT_LT(2.0 * rr, lap) << "n " << c.n << " d " << c.d;
    }
  }
}

TEST(PaperClaimsTest, Figure6DawazWinsAtLowEpsilonAndDawaAtLowRatios) {
  const auto suite = StandardSuite();
  const std::vector<RegretRow> rows = RatioRows("");
  // ε = 0.01: DAWAz has less regret than DAWA.
  const auto low_eps = RegretTable(suite, Inputs(0.0), {Row(rows, "Avg")},
                                   0.01, ErrorMetric::kMRE, kReps,
                                   {"DAWAz", "DAWA"});
  EXPECT_LT(2.0 * low_eps[0][0], low_eps[0][1]);
  // ε = 1, ρx <= 0.25: DAWA beats OsdpLaplaceL1, which has too few
  // non-sensitive records to go on.
  const auto low_rho = RegretTable(
      suite, Inputs(0.0),
      {Row(rows, "0.25"), Row(rows, "0.10"), Row(rows, "0.01")}, 1.0,
      ErrorMetric::kMRE, kReps, {"DAWA", "OsdpLaplaceL1"});
  for (const auto& row : low_rho) EXPECT_LT(2.0 * row[0], row[1]);
}

// Figures 7 and 8 (ε = 1, ρx >= 0.25): under Close, OSDP beats DP at every
// ratio; under Far, the pure x_ns primitive suffers, but DAWAz still beats
// DAWA at every ratio. Returns the Close table's Avg row.
std::vector<double> ExpectDawazBeatsDawaPerPolicy(ErrorMetric metric) {
  const auto suite = StandardSuite();
  std::vector<double> close_avg;
  for (const char* policy : {"Close", "Far"}) {
    SCOPED_TRACE(policy);
    const auto table =
        RegretTable(suite, Inputs(0.25), RatioRows(policy, 0.25), 1.0, metric,
                    kReps, {"DAWAz", "OsdpLaplaceL1", "DAWA"});
    for (const auto& row : table) EXPECT_LT(2.0 * row[0], row[2]);
    if (close_avg.empty()) close_avg = table[0];
  }
  return close_avg;
}

TEST(PaperClaimsTest, Figure7OsdpBeatsDpPerPolicy) {
  ExpectDawazBeatsDawaPerPolicy(ErrorMetric::kMRE);
}

TEST(PaperClaimsTest, Figure8OsdpBeatsDpPerPolicy) {
  // Rel95 scores the bins DP gets wrong, so under Close even OsdpLaplaceL1
  // beats DAWA on average.
  const std::vector<double> close_avg =
      ExpectDawazBeatsDawaPerPolicy(ErrorMetric::kRel95);
  EXPECT_LT(2.0 * close_avg[1], close_avg[2]);
}

TEST(PaperClaimsTest, Figure9SparseAdultGivesDawaTenTimesTheOsdpRegret) {
  RegretFilter adult;
  adult.dataset = "Adult";
  adult.policy = "Close";
  adult.rho = 0.99;
  const auto table = RegretTable(StandardSuite(), Inputs(0.5),
                                 {{"Adult", adult}}, 1.0, ErrorMetric::kMRE,
                                 kReps, {"OsdpLaplaceL1", "DAWAz", "DAWA"});
  const double osdp = std::min(table[0][0], table[0][1]);
  EXPECT_GE(table[0][2], 10.0 * osdp);
}

TEST(PaperClaimsTest, Figure10Suppress10HasMoreRegretThanOsdpLaplaceL1) {
  auto suite = StandardSuite();
  suite.push_back(MakeSuppressMechanism(10.0));
  suite.push_back(MakeSuppressMechanism(100.0));
  const auto table = RegretTable(suite, Inputs(0.0), {RatioRows("")[0]}, 1.0,
                                 ErrorMetric::kMRE, kReps,
                                 {"OsdpLaplaceL1", "Suppress10"});
  EXPECT_LT(1.5 * table[0][0], table[0][1]);
}

}  // namespace
}  // namespace osdp
