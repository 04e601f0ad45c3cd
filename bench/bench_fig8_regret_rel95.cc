// Figure 8: average regret for the 95th-percentile per-bin relative error
// (Rel95) at ε = 1, per policy generator, ρx >= 0.25.
//
// Paper shape: same ordering as Figure 7, with the OSDP advantage most
// pronounced — Rel95 captures exactly the bins DP algorithms get wrong.

#include "bench/bench_dpbench_common.h"

int main() {
  return osdp::bench::RunPolicyFigure(
      "Figure 8: average regret (Rel95) per policy, eps=1",
      osdp::ErrorMetric::kRel95, {"OsdpLaplaceL1", "DAWAz", "DAWA"},
      "shape check (paper Fig. 8): highest OSDP improvements in the\n"
      "high-error bins; under Far only DAWAz remains robust.\n");
}
