// Figure 10: comparison with the PDP Suppress algorithm at τ ∈ {10, 100}
// vs OsdpLaplaceL1, regret of MRE at ε = 1 across non-sensitive ratios.
//
// Paper shape: Suppress becomes competitive only around τ >= 100 — i.e. by
// accepting 100x weaker exclusion-attack protection (Theorems 3.1 vs 3.4).

#include <cstdio>

#include "bench/bench_dpbench_common.h"
#include "src/mech/suppress.h"

using namespace osdp;
using namespace osdp::bench;

int main() {
  // The regret reference suite: the paper's 6 algorithms plus the two
  // Suppress variants under comparison.
  auto suite = StandardSuite();
  suite.push_back(MakeSuppressMechanism(10.0));
  suite.push_back(MakeSuppressMechanism(100.0));

  auto inputs = BuildInputs();
  const int reps = Reps(3);
  const std::vector<std::string> shown = {"OsdpLaplaceL1", "Suppress10",
                                          "Suppress100"};
  const double eps = 1.0;

  std::printf("=== Figure 10: PDP Suppress vs OSDP (regret of MRE, eps=1) ===\n\n");
  PrintRegretTable(suite, inputs, RatioRows(""), eps, ErrorMetric::kMRE, reps,
                   shown);

  std::printf("\nexclusion-attack price (Theorem 3.4):\n");
  for (double tau : {10.0, 100.0}) {
    PrivacyGuarantee g = SuppressGuarantee(tau, "Phi_P");
    std::printf("  Suppress(tau=%.0f): %s -> %.0fx weaker protection than\n"
                "    OsdpLaplaceL1's phi = %.1f\n",
                tau, g.ToString().c_str(), tau / eps, eps);
  }
  std::printf("\nshape check: Suppress100 approaches OsdpLaplaceL1's utility\n"
              "but only by paying 100x in phi (paper Fig. 10).\n");
  return 0;
}
