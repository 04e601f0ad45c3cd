// Shared driver for the DPBench-1D regret figures (Figures 6-10): builds the
// (x, x_ns) input grid — 7 datasets x {Close, Far} x ratio grid — and runs
// the mechanism suite with regret accounting.

#ifndef OSDP_BENCH_BENCH_DPBENCH_COMMON_H_
#define OSDP_BENCH_BENCH_DPBENCH_COMMON_H_

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/benchdata/dpbench.h"
#include "src/benchdata/sampling.h"
#include "src/eval/regret.h"
#include "src/eval/table_printer.h"
#include "src/mech/histogram_mechanism.h"
#include "src/traj/ap_policy.h"

namespace osdp {
namespace bench {

/// One evaluation input: a dataset with a sampled non-sensitive histogram.
struct DPBenchInput {
  std::string dataset;
  std::string policy;  // "Close" or "Far"
  double rho;
  Histogram x;
  Histogram xns;
};

/// The paper's non-sensitive ratio grid.
inline const std::vector<double>& RatioGrid() { return PaperPolicyGrid(); }

/// Builds all (dataset x policy x ratio) inputs — the paper's 98 pairs.
/// `min_rho` trims the grid (several figures restrict to ρx >= 0.25).
inline std::vector<DPBenchInput> BuildInputs(double min_rho = 0.0) {
  std::vector<DPBenchInput> inputs;
  Rng rng(20171216);
  for (const BenchmarkDataset& d : MakeDPBench1D()) {
    for (const char* policy : {"Close", "Far"}) {
      for (double rho : RatioGrid()) {
        if (rho < min_rho) continue;
        Histogram xns(0);
        if (std::string(policy) == "Close") {
          xns = *MSampling(d.hist, rho, rng);
        } else {
          xns = *HiLoSampling(d.hist, rho, rng);
        }
        inputs.push_back(
            {d.name, policy, rho, d.hist, std::move(xns)});
      }
    }
  }
  return inputs;
}

/// Runs `suite` on every input matching the filter, aggregating average
/// regret per mechanism with `metric`. Filters accept empty = match all.
struct RegretFilter {
  std::string dataset;  // match-all when empty
  std::string policy;
  double rho = -1.0;  // match-all when negative
};

inline bool Matches(const RegretFilter& f, const DPBenchInput& in) {
  if (!f.dataset.empty() && f.dataset != in.dataset) return false;
  if (!f.policy.empty() && f.policy != in.policy) return false;
  if (f.rho >= 0.0 && std::abs(f.rho - in.rho) > 1e-9) return false;
  return true;
}

inline std::vector<MechanismScore> AverageRegret(
    const std::vector<std::unique_ptr<HistogramMechanism>>& suite,
    const std::vector<DPBenchInput>& inputs, const RegretFilter& filter,
    double epsilon, ErrorMetric metric, int reps) {
  RegretAccumulator acc;
  SuiteRunOptions opts;
  opts.repetitions = reps;
  uint64_t seed = 1;
  for (const DPBenchInput& in : inputs) {
    ++seed;
    if (!Matches(filter, in)) continue;
    opts.seed = seed * 7919;
    acc.Add(*RunSuite(suite, in.x, in.xns, epsilon, metric, opts));
  }
  return acc.AverageRegrets();
}

/// One labelled row of a regret table.
using RegretRow = std::pair<std::string, RegretFilter>;

/// An "Avg" row over `policy` (empty = both), then one row per grid ratio
/// ρx >= `min_rho`: the rows of Figures 6, 7, 8 and 10.
inline std::vector<RegretRow> RatioRows(const std::string& policy,
                                        double min_rho = 0.0) {
  RegretFilter all;
  all.policy = policy;
  std::vector<RegretRow> rows = {{"Avg", all}};
  for (double rho : RatioGrid()) {
    if (rho < min_rho) continue;
    RegretFilter f = all;
    f.rho = rho;
    rows.push_back({TextTable::Fmt(rho, 2), f});
  }
  return rows;
}

/// \brief Average regret of each of `shown_mechanisms` (columns) over the
/// inputs each of `rows` matches: the numbers a regret figure prints and
/// tests/paper_claims_test.cc asserts.
inline std::vector<std::vector<double>> RegretTable(
    const std::vector<std::unique_ptr<HistogramMechanism>>& suite,
    const std::vector<DPBenchInput>& inputs,
    const std::vector<RegretRow>& rows, double epsilon, ErrorMetric metric,
    int reps, const std::vector<std::string>& shown_mechanisms) {
  std::vector<std::vector<double>> table;
  for (const RegretRow& row : rows) {
    const auto scores =
        AverageRegret(suite, inputs, row.second, epsilon, metric, reps);
    std::vector<double>& cells = table.emplace_back();
    for (const std::string& m : shown_mechanisms) {
      cells.push_back(ScoreOf(scores, m).regret);
    }
  }
  return table;
}

/// Renders RegretTable: one row per row-filter, one column per mechanism.
inline void PrintRegretTable(
    const std::vector<std::unique_ptr<HistogramMechanism>>& suite,
    const std::vector<DPBenchInput>& inputs,
    const std::vector<RegretRow>& rows, double epsilon, ErrorMetric metric,
    int reps, const std::vector<std::string>& shown_mechanisms) {
  std::vector<std::string> headers = {"input"};
  for (const std::string& m : shown_mechanisms) headers.push_back(m);
  TextTable table(headers);
  const auto regrets = RegretTable(suite, inputs, rows, epsilon, metric, reps,
                                   shown_mechanisms);
  for (size_t r = 0; r < rows.size(); ++r) {
    std::vector<std::string> cells = {rows[r].first};
    for (double regret : regrets[r]) cells.push_back(TextTable::Fmt(regret, 2));
    table.AddRow(std::move(cells));
  }
  std::printf("%s", table.ToString().c_str());
}

/// Figures 7 and 8: one regret table under `metric` per policy generator
/// (Close = MSampling, Far = HiLoSampling), at ε = 1 over ρx >= 0.25.
inline int RunPolicyFigure(const char* title, ErrorMetric metric,
                           const std::vector<std::string>& shown,
                           const char* shape_check) {
  const auto suite = StandardSuite();
  const auto inputs = BuildInputs(/*min_rho=*/0.25);
  const int reps = Reps(3);
  std::printf("=== %s ===\n\n", title);
  for (const char* policy : {"Close", "Far"}) {
    std::printf("--- policy: %s ---\n", policy);
    PrintRegretTable(suite, inputs, RatioRows(policy, /*min_rho=*/0.25), 1.0,
                     metric, reps, shown);
    std::printf("\n");
  }
  std::printf("%s", shape_check);
  return 0;
}

}  // namespace bench
}  // namespace osdp

#endif  // OSDP_BENCH_BENCH_DPBENCH_COMMON_H_
