// Shared driver for the Figure 2 (4-gram) and Figure 3 (5-gram) benches.

#ifndef OSDP_BENCH_BENCH_NGRAM_COMMON_H_
#define OSDP_BENCH_BENCH_NGRAM_COMMON_H_

#include <cstdio>

#include "bench/bench_common.h"
#include "src/eval/metrics.h"
#include "src/eval/table_printer.h"
#include "src/mech/osdp_rr.h"
#include "src/traj/ngram.h"

namespace osdp {
namespace bench {

/// Runs the Figure 2/3 experiment for n-grams of length `n`: MRE of
/// All NS, OsdpRR, LM T1, and LM T* across the policy grid at ε ∈ {1, 0.01}.
inline int RunNgramFigure(int n, const char* figure_name) {
  const TrajectoryDataset& sim = Tippers();
  NGramOptions nopts;
  nopts.n = n;
  nopts.alphabet = sim.config.num_aps;

  SparseHistogram truth = *NGramDistinctUsers(sim.trajectories, nopts);
  std::printf("=== %s: MRE of %d-gram distinct-user counts ===\n", figure_name,
              n);
  std::printf("domain 64^%d = %.3g cells; %zu carry true mass\n\n", n,
              truth.domain_size(), truth.num_materialized());

  const std::vector<int> truncation_grid = {1, 2, 4, 8};
  const int reps = Reps(3);

  for (double eps : {1.0, 0.01}) {
    std::printf("--- eps = %g ---\n", eps);

    // The LM baselines are policy-independent: compute once per eps. Two
    // views: MRE over the true support (the per-policy bars of Figures 2/3)
    // and the full-domain MRE where the 64^n zero cells contribute their
    // analytic E|Lap(2k/eps)| each (the paper's zero-count accounting).
    double lm_t1_sup = 0.0, lm_t1_dom = 0.0;
    double lm_ts_sup = 1e300, lm_ts_dom = 1e300;
    int best_k = 1;
    {
      Rng rng(500 + n);
      for (int k : truncation_grid) {
        double sup = 0.0, dom = 0.0;
        for (int rep = 0; rep < reps; ++rep) {
          SparseHistogram trunc =
              *TruncatedNGramDistinctUsers(sim.trajectories, nopts, k, rng);
          SparseHistogram noisy = *NGramLaplace(trunc, k, eps, rng);
          sup += SparseSupportMeanRelativeError(truth, noisy);
          dom += SparseMeanRelativeError(truth, noisy,
                                         NGramLaplaceZeroCellError(k, eps));
        }
        sup /= reps;
        dom /= reps;
        if (k == 1) {
          lm_t1_sup = sup;
          lm_t1_dom = dom;
        }
        if (sup < lm_ts_sup) {
          lm_ts_sup = sup;
          lm_ts_dom = dom;
          best_k = k;
        }
      }
    }

    TextTable table({"policy", "All NS", "OsdpRR", "LM T1", "LM T*"});
    for (size_t pi = 0; pi < PolicyGrid().size(); ++pi) {
      const ApSetPolicy& ap_policy = TippersPolicies()[pi];
      auto policy = ap_policy.AsPolicy();
      Rng rng(700 + pi * 13 + n);

      std::vector<Trajectory> all_ns;
      for (const Trajectory& t : sim.trajectories) {
        if (!ap_policy.IsSensitive(t)) all_ns.push_back(t);
      }
      SparseHistogram ns_est = *NGramDistinctUsers(all_ns, nopts);
      const double all_ns_mre = SparseSupportMeanRelativeError(truth, ns_est);

      double rr_mre = 0.0;
      for (int rep = 0; rep < reps; ++rep) {
        std::vector<Trajectory> sample;
        const std::vector<size_t> picked =
            *OsdpRRSelectGeneric(sim.trajectories, policy, eps, rng);
        for (size_t i : picked) sample.push_back(sim.trajectories[i]);
        SparseHistogram rr_est = *NGramDistinctUsers(sample, nopts);
        rr_mre += SparseSupportMeanRelativeError(truth, rr_est);
      }
      rr_mre /= reps;

      table.AddRow({PolicyGrid()[pi].label, TextTable::FmtAuto(all_ns_mre),
                    TextTable::FmtAuto(rr_mre), TextTable::FmtAuto(lm_t1_sup),
                    TextTable::FmtAuto(lm_ts_sup)});
    }
    std::printf("%s", table.ToString().c_str());
    std::printf("(support-restricted MRE; LM T* used k = %d)\n", best_k);
    std::printf("full-domain MRE incl. analytic zero cells: All NS/OsdpRR "
                "report exact zeros there;\n  LM T1 = %s, LM T* = %s "
                "(~2k/eps, every one of %.3g cells pays E|Lap|)\n\n",
                TextTable::FmtAuto(lm_t1_dom).c_str(),
                TextTable::FmtAuto(lm_ts_dom).c_str(), truth.domain_size());
  }
  std::printf("shape check: OsdpRR close to All NS, degrading as the\n"
              "non-sensitive share shrinks; LM is comparable at eps=1 but an\n"
              "order of magnitude (or more) worse at eps=0.01, and its\n"
              "full-domain error is catastrophic (paper Figures 2/3).\n");
  return 0;
}

}  // namespace bench
}  // namespace osdp

#endif  // OSDP_BENCH_BENCH_NGRAM_COMMON_H_
