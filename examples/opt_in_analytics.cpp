// Opt-in analytics (paper Examples 1-2 + Section 6.3.3): a data owner whose
// users opted in/out runs the full histogram-release suite on a benchmark
// dataset under Close and Far policies, and reads off the regret table.
//
// Build & run:  ./build/examples/opt_in_analytics

#include <cstdio>

#include "src/benchdata/dpbench.h"
#include "src/benchdata/sampling.h"
#include "src/eval/regret.h"
#include "src/eval/table_printer.h"
#include "src/mech/histogram_mechanism.h"

using namespace osdp;  // example code; library code never does this

int main() {
  BenchmarkDataset dataset = *MakeDPBenchDataset("Adult", 4096, 20200416);
  std::printf("dataset %s: %zu bins, scale %.0f, sparsity %.3f\n",
              dataset.name.c_str(), dataset.hist.size(), dataset.hist.Total(),
              dataset.hist.Sparsity());

  const double eps = 1.0;
  const double rho = 0.9;  // 90% of users opted in
  Rng rng(1);

  auto suite = StandardSuite();
  SuiteRunOptions opts;
  opts.repetitions = 5;
  opts.seed = 7;

  for (const char* policy_name : {"Close", "Far"}) {
    Histogram xns(0);
    if (std::string(policy_name) == "Close") {
      xns = *MSampling(dataset.hist, rho, rng);
    } else {
      xns = *HiLoSampling(dataset.hist, rho, rng);
    }
    auto scores =
        *RunSuite(suite, dataset.hist, xns, eps, ErrorMetric::kMRE, opts);

    std::printf("\n=== policy %s (rho=%.2f, eps=%.1f) ===\n", policy_name, rho,
                eps);
    TextTable table({"algorithm", "guarantee", "MRE", "regret"});
    for (const MechanismScore& s : scores) {
      PrivacyGuarantee g;
      for (const auto& mech : suite) {
        if (mech->name() == s.name) g = mech->Guarantee(eps);
      }
      table.AddRow({s.name, g.ToString(), TextTable::FmtAuto(s.error),
                    TextTable::Fmt(s.regret, 2)});
    }
    std::printf("%s", table.ToString().c_str());
  }

  std::printf(
      "\nreading: the OSDP algorithms exploit the opted-in majority; the\n"
      "Far policy hurts the pure x_ns-based primitives but DAWAz (which also\n"
      "sees the full histogram through its DP stage) stays competitive.\n");
  return 0;
}
