// Figure 6: average regret for MRE across non-sensitive ratios, both
// policies pooled, at ε ∈ {1.0, 0.01}. Series: DAWAz, DAWA, OsdpLaplaceL1.
//
// Paper shape: low ε favours DAWAz; at ε = 1 and ρx <= 0.25, DAWA beats the
// pure OSDP primitive OsdpLaplaceL1. At ε = 0.01 it does not: there DAWA's
// regret is the larger at every ratio.

#include <cstdio>

#include "bench/bench_dpbench_common.h"

using namespace osdp;
using namespace osdp::bench;

int main() {
  auto suite = StandardSuite();
  auto inputs = BuildInputs();
  const int reps = Reps(3);
  const std::vector<std::string> shown = {"DAWAz", "DAWA", "OsdpLaplaceL1"};

  std::printf("=== Figure 6: average regret (MRE), both policies ===\n");
  std::printf("regret is vs the best of the 6-algorithm suite; avg over the\n"
              "7 datasets x 2 policies at each ratio\n\n");
  for (double eps : {1.0, 0.01}) {
    std::printf("--- eps = %g ---\n", eps);
    PrintRegretTable(suite, inputs, RatioRows(""), eps, ErrorMetric::kMRE,
                     reps, shown);
    std::printf("\n");
  }
  std::printf("shape check: DAWA's regret rises as rho grows (it ignores the\n"
              "non-sensitive records); at eps=1 OsdpLaplaceL1 trails DAWA at\n"
              "rho <= 0.25, at eps=0.01 it does not; DAWAz stays near the\n"
              "optimum throughout (paper Fig. 6).\n");
  return 0;
}
