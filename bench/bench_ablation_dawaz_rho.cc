// Ablation: DAWAz's budget split ρ (Section 5.2 instantiation choice; the
// paper fixes ρ = 0.1). Sweeps the zero-detector budget and both detector
// choices across a sparse and a dense dataset.

#include <cstdio>

#include "bench/bench_dpbench_common.h"
#include "src/mech/dawaz.h"
#include "src/mech/histogram_mechanism.h"

using namespace osdp;
using namespace osdp::bench;

int main() {
  std::printf("=== ablation: DAWAz zero-detector budget ratio rho ===\n");
  std::printf("(paper uses rho = 0.1 with the OsdpRR detector)\n\n");

  const double eps = 1.0;
  const int reps = Reps(5);
  Rng data_rng(5);

  for (const char* name : {"Adult", "Patent"}) {
    BenchmarkDataset d = *MakeDPBenchDataset(name, 4096, 20200416);
    Histogram xns = *MSampling(d.hist, 0.9, data_rng);
    std::printf("--- dataset %s (sparsity %.2f), Close policy, rho_x=0.9 ---\n",
                name, d.hist.Sparsity());
    TextTable table({"rho", "MRE (OsdpRR det.)", "MRE (OsdpLaplaceL1 det.)"});
    for (double rho : {0.02, 0.05, 0.1, 0.2, 0.3, 0.5}) {
      double mre_rr = 0.0, mre_l1 = 0.0;
      Rng rng(77);
      for (int rep = 0; rep < reps; ++rep) {
        DawazOptions opts;
        opts.zero_budget_ratio = rho;
        opts.detector = DawazZeroDetector::kOsdpRR;
        mre_rr += MeanRelativeError(d.hist, *Dawaz(d.hist, xns, eps, opts, rng));
        opts.detector = DawazZeroDetector::kOsdpLaplaceL1;
        mre_l1 += MeanRelativeError(d.hist, *Dawaz(d.hist, xns, eps, opts, rng));
      }
      table.AddRow({TextTable::Fmt(rho, 2), TextTable::Fmt(mre_rr / reps, 4),
                    TextTable::Fmt(mre_l1 / reps, 4)});
    }
    std::printf("%s\n", table.ToString().c_str());
  }

  std::printf("=== ablation: the naive recipe (Section 5.2) ===\n");
  std::printf("DAWAns = DAWA run unchanged on x_ns; suffers when x and x_ns\n"
              "diverge (Far policy), which motivates the DAWAz design.\n\n");
  BenchmarkDataset d = *MakeDPBenchDataset("Searchlogs", 4096, 20200416);
  TextTable naive({"policy", "rho_x", "DAWAns MRE", "DAWAz MRE"});
  auto dawans = MakeDawaNsMechanism();
  auto dawaz = MakeCatalogMechanism(EngineMechanism::kDawaz);
  for (const char* policy : {"Close", "Far"}) {
    for (double rho : {0.9, 0.5}) {
      Histogram xns(0);
      if (std::string(policy) == "Close") {
        xns = *MSampling(d.hist, rho, data_rng);
      } else {
        xns = *HiLoSampling(d.hist, rho, data_rng);
      }
      Rng rng(11);
      double a = 0.0, b = 0.0;
      for (int rep = 0; rep < reps; ++rep) {
        a += MeanRelativeError(d.hist, *dawans->Run(d.hist, xns, eps, rng));
        b += MeanRelativeError(d.hist, *dawaz->Run(d.hist, xns, eps, rng));
      }
      naive.AddRow({policy, TextTable::Fmt(rho, 1), TextTable::Fmt(a / reps, 4),
                    TextTable::Fmt(b / reps, 4)});
    }
  }
  std::printf("%s", naive.ToString().c_str());
  return 0;
}
