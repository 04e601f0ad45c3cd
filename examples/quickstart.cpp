// Quickstart: the one-sided differential privacy workflow in ~80 lines.
//
//   1. Build a table and declare a policy (who is sensitive).
//   2. Release a *true* sample of non-sensitive records with OsdpRR.
//   3. Answer a histogram query with one-sided Laplace noise.
//   4. Track the composed guarantee with the accounting ledger.
//
// Build & run:  ./build/examples/quickstart

#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

#include "src/accounting/concurrent.h"
#include "src/common/random.h"
#include "src/hist/histogram_query.h"
#include "src/mech/osdp_laplace.h"
#include "src/mech/osdp_rr.h"
#include "src/policy/policy.h"

using namespace osdp;  // example code; library code never does this

int main() {
  // --- 1. Data + policy -----------------------------------------------
  // GDPR-style scenario: users either opted in (1) or not (0); opted-out
  // records and minors are sensitive.
  Rng data_rng(7);
  std::vector<int64_t> ages;
  std::vector<int64_t> opt_ins;
  for (int i = 0; i < 10000; ++i) {
    ages.push_back(static_cast<int64_t>(data_rng.NextBounded(90) + 10));
    opt_ins.push_back(data_rng.NextBernoulli(0.85) ? 1 : 0);
  }
  const Result<Table> built = Table::FromColumns(
      Schema({{"age", ValueType::kInt64}, {"opt_in", ValueType::kInt64}}),
      {std::move(ages), std::move(opt_ins)});
  if (!built.ok()) return 1;
  const Table& table = *built;
  Policy policy = Policy::SensitiveWhen(
      Predicate::Or(Predicate::Le("age", Value(17)),
                    Predicate::Eq("opt_in", Value(0))),
      "P_gdpr");
  std::printf("policy %s: %.1f%% of records are non-sensitive\n",
              policy.name().c_str(), 100 * policy.NonSensitiveFraction(table));

  // --- 2. OsdpRR: release true records ---------------------------------
  Rng rng(42);
  const double eps_release = 0.5;
  Table sample = OsdpRRReleaseView(table, policy.NonSensitiveRowMask(table),
                                  eps_release, rng)
                     ->Materialize();
  std::printf("OsdpRR(eps=%.2f) released %zu of %zu records "
              "(expected rate %.1f%% of non-sensitive)\n",
              eps_release, sample.num_rows(), table.num_rows(),
              100 * OsdpRRReleaseProbability(eps_release));

  // --- 3. OsdpLaplaceL1: histogram with one-sided noise -----------------
  const double eps_hist = 0.5;
  HistogramQuery query{"age", *Domain1D::Numeric(10, 100, 18), std::nullopt};
  Histogram x = *ComputeHistogram(table, query);
  Histogram xns = *ComputeHistogramMasked(table, query,
                                          policy.NonSensitiveRowMask(table));
  Histogram noisy = *OsdpLaplaceL1(xns, eps_hist, rng);
  std::printf("\nage histogram (true vs OSDP estimate):\n");
  for (size_t b = 0; b < x.size(); ++b) {
    auto [lo, hi] = query.domain.BinBounds(b);
    std::printf("  [%3.0f,%3.0f)  true %6.0f   estimate %8.1f\n", lo, hi, x[b],
                noisy[b]);
  }

  // --- 4. Accounting ----------------------------------------------------
  SharedLedger ledger;
  ledger.Record(policy, eps_release, "OsdpRR sample");
  ledger.Record(policy, eps_hist, "OsdpLaplaceL1 histogram");
  ComposedGuarantee g = *ledger.Sequential();
  std::printf("\ncomposed guarantee: (%s, %.2f)-OSDP  (Theorem 3.3)\n",
              g.policy.name().c_str(), g.epsilon);
  std::printf("exclusion-attack freedom: phi = %.2f  (Theorem 3.1)\n",
              g.epsilon);
  return 0;
}
