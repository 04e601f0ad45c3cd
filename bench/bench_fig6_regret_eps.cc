// Figure 6: average regret for MRE across non-sensitive ratios, both
// policies pooled, at ε ∈ {1.0, 0.01}. Series: DAWAz, DAWA, OsdpLaplaceL1.
//
// Paper shape: low ε favours DAWAz; at ρx <= 0.25 DAWA beats the pure OSDP
// primitive OsdpLaplaceL1.

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
              "non-sensitive records); OsdpLaplaceL1 collapses below rho=0.25;\n"
              "DAWAz stays near the optimum throughout (paper Fig. 6).\n");
  return 0;
}
