// Theorem 5.1 crossover: OsdpRR's histogram error exceeds the Laplace
// mechanism's exactly when n·ε > 2d·e^ε. This bench traces the frontier
// empirically across (n, d, ε), comparing measured L1 error with the
// analytic predictions from Section 5.1.

#include <cmath>
#include <cstdio>

#include "bench/bench_common.h"
#include "src/eval/metrics.h"
#include "src/eval/table_printer.h"
#include "src/mech/laplace.h"
#include "src/mech/osdp_rr.h"

using namespace osdp;

int main() {
  std::printf("=== Theorem 5.1: OsdpRR vs Laplace L1-error crossover ===\n");
  std::printf("Laplace wins iff n*eps > 2d*e^eps (all records non-sensitive,\n"
              "uniform histogram — OsdpRR's best case)\n\n");

  Rng rng(31);
  const int reps = bench::Reps(5);
  TextTable table({"n", "d", "eps", "n*eps", "2d*e^eps", "L1 OsdpRR",
                   "L1 Laplace", "winner", "thm 5.1 says"});
  struct Case {
    double n;
    size_t d;
    double eps;
  };
  const Case cases[] = {
      {1e3, 1024, 0.1},  {1e4, 1024, 0.1},  {1e5, 1024, 0.1},
      {1e6, 1024, 0.1},  {1e3, 1024, 1.0},  {1e4, 1024, 1.0},
      {1e5, 1024, 1.0},  {2.2e5, 10000, 0.1},  // the paper's worked example
      {1e6, 16, 1.0},    {100, 512, 1.0},
  };
  for (const Case& c : cases) {
    Histogram x(c.d);
    for (size_t i = 0; i < c.d; ++i) x[i] = c.n / static_cast<double>(c.d);
    double rr = 0.0, lap = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      rr += L1Error(x, *OsdpRRHistogram(x, c.eps, rng));
      lap += L1Error(x, *LaplaceMechanism(x, c.eps, rng));
    }
    rr /= reps;
    lap /= reps;
    const double lhs = c.n * c.eps;
    const double rhs = 2.0 * static_cast<double>(c.d) * std::exp(c.eps);
    // Theorem 5.1's verdict from the two analytic error models (every record
    // non-sensitive): OsdpRR loses iff n·e^-ε > 2d/ε, i.e. iff n·ε > 2d·e^ε.
    const bool laplace_predicted =
        OsdpRRExpectedL1Error(c.n, c.n, c.eps) >
        LaplaceExpectedL1Error(c.d, c.eps);
    table.AddRow({TextTable::FmtAuto(c.n), std::to_string(c.d),
                  TextTable::Fmt(c.eps, 2), TextTable::FmtAuto(lhs),
                  TextTable::FmtAuto(rhs), TextTable::FmtAuto(rr),
                  TextTable::FmtAuto(lap), rr < lap ? "OsdpRR" : "Laplace",
                  laplace_predicted ? "Laplace" : "OsdpRR"});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("\nanalytic error models: OsdpRR >= n*e^-eps;"
              " Laplace = 2d/eps.\n");
  return 0;
}
