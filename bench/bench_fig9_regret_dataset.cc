// Figure 9: regret for MRE per dataset (Close policy, ε = 1) at fixed
// ρx ∈ {0.99, 0.50}, datasets ordered by descending sparsity.
//
// Paper shape: ~25x regret gap on the sparsest dataset (Adult) at ρx=0.99 —
// the OSDP algorithms identify the zero bins exactly — narrowing as sparsity
// decreases; Nettrace (sorted) is the one dataset where DAWA recovers.

#include <cstdio>

#include "bench/bench_dpbench_common.h"

using namespace osdp;
using namespace osdp::bench;

int main() {
  auto suite = StandardSuite();
  auto inputs = BuildInputs(/*min_rho=*/0.5);
  const int reps = Reps(3);
  const std::vector<std::string> shown = {"OsdpLaplaceL1", "DAWAz", "DAWA"};
  const double eps = 1.0;

  // Descending sparsity, as in the figure's x-axis.
  const std::vector<std::string> datasets = {
      "Adult", "Nettrace", "Medcost", "Searchlogs", "Income", "Hepth",
      "Patent"};

  std::printf("=== Figure 9: regret (MRE), Close policy, eps=1 ===\n\n");
  for (double rho : {0.99, 0.50}) {
    std::printf("--- non-sensitive ratio rho_x = %.2f ---\n", rho);
    RegretFilter all;
    all.policy = "Close";
    all.rho = rho;
    std::vector<RegretRow> rows = {{"All", all}};
    for (const std::string& ds : datasets) {
      RegretFilter f = all;
      f.dataset = ds;
      rows.push_back({ds, f});
    }
    PrintRegretTable(suite, inputs, rows, eps, ErrorMetric::kMRE, reps, shown);
    std::printf("\n");
  }
  std::printf("shape check (paper Fig. 9): largest gap on sparse Adult at\n"
              "rho=0.99 (paper: ~25x); gap narrows with sparsity; sorted\n"
              "Nettrace is DAWA's best case; DAWAz gains as rho shrinks.\n");
  return 0;
}
