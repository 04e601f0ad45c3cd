// Figure 7: average regret for MRE at ε = 1, split by policy generator
// (Close = MSampling, Far = HiLoSampling), ρx >= 0.25.
//
// Shape (asserted by paper_claims_test): under both Close and Far, DAWAz has
// less regret than DAWA at every ratio. The pure x_ns primitive
// OsdpLaplaceL1 is not always ahead: at OSDP_BENCH_REPS=1 it trails DAWA at
// ρx 0.50 and 0.25 under both policies.

#include "bench/bench_dpbench_common.h"

int main() {
  return osdp::bench::RunPolicyFigure(
      "Figure 7: average regret (MRE) per policy, eps=1",
      osdp::ErrorMetric::kMRE, {"DAWAz", "OsdpLaplaceL1", "DAWA"},
      "shape check (paper Fig. 7a/7b): DAWAz ahead of DAWA at every ratio,\n"
      "under Close and under Far.\n");
}
