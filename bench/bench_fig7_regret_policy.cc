// Figure 7: average regret for MRE at ε = 1, split by policy generator
// (Close = MSampling, Far = HiLoSampling), ρx >= 0.25.
//
// Paper shape: under Close, OSDP algorithms dominate DP everywhere; under
// Far, the pure x_ns primitives suffer but DAWAz still beats DAWA.

#include "bench/bench_dpbench_common.h"

int main() {
  return osdp::bench::RunPolicyFigure(
      "Figure 7: average regret (MRE) per policy, eps=1",
      osdp::ErrorMetric::kMRE, {"DAWAz", "OsdpLaplaceL1", "DAWA"},
      "shape check (paper Fig. 7a/7b): Close -> OSDP always ahead;\n"
      "Far -> DAWAz still outperforms DAWA at every ratio.\n");
}
