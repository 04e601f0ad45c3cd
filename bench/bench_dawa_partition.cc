// Micro-benchmark of the DAWA L1-partition engines: seconds per solve for
// the naive reference DP (per-interval O(len) cost scans — O(d²) total under
// kEvery) versus the precomputed interval-cost engine
// (src/mech/interval_costs.h — one table build, O(1) per candidate), across
// domain sizes, both candidate-position modes and three inputs
// (bench_common.h): `spiky`, the integer SpikyData; `noisy`, SpikyData +
// Lap(2/ε₁), the input DAWA's stage 1 hands the engine in the service; and
// `clustered`, a narrow band of distinct values with alternating outliers.
// On the two integer inputs every cell where both implementations run is
// cross-checked for the bit-identical optimal cost and buckets the property
// tests pin down; on `noisy` the two optimal costs must agree to a relative
// 1e-6 (kNoisyCostTolerance).
//
// Knobs:
//   OSDP_BENCH_MAX_D        caps the domain grid (default 262144 = 2^18;
//                           set 4096 for a CI smoke run)
//   OSDP_BENCH_MAX_NAIVE_D  caps the domains the naive kEvery path runs at
//                           (default 65536 = 2^16 — the acceptance point;
//                           beyond that the O(d²) scan takes minutes)
//   OSDP_BENCH_JSON         output path (default BENCH_dawa.json)

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/eval/table_printer.h"
#include "src/mech/dawa.h"

using namespace osdp;

namespace {

struct Measurement {
  std::string input;  // spiky | noisy | clustered
  size_t d;
  std::string positions;  // every | half
  std::string impl;       // naive | engine
  double sec_per_solve;
  double cost;
  size_t buckets;
};

const char* PosName(DawaPositions p) {
  return p == DawaPositions::kEvery ? "every" : "half";
}

// Largest relative difference of the naive and engine optimal costs on the
// noisy input. The two round differently on non-integers, and the naive DP
// prices a singleton bucket at |x_i - (prefix[i+1] - prefix[i])|, a prefix
// rounding error that grows with the running sum, where the engine returns
// 0; on this input that gap stays below ~1e-7 of the cost up to d = 2^18.
// A near-tie may also pick different buckets, so only costs are compared.
constexpr double kNoisyCostTolerance = 1e-6;

}  // namespace

int main() {
  const size_t max_d = bench::EnvSize("OSDP_BENCH_MAX_D", 262144);
  const size_t max_naive_d = bench::EnvSize("OSDP_BENCH_MAX_NAIVE_D", 65536);

  std::vector<size_t> domains;
  for (size_t d = 256; d <= 262144; d *= 4) {
    if (d <= max_d) domains.push_back(d);
  }
  if (domains.empty()) domains.push_back(max_d);

  const double bucket_charge = 8.0;
  std::vector<Measurement> results;
  bool all_identical = true;
  double noisy_max_rel = 0.0;

  std::printf("=== DAWA L1-partition: naive reference DP vs cost engine ===\n");
  std::printf("(domain grid capped at %zu; naive kEvery capped at %zu)\n\n",
              max_d, max_naive_d);

  for (size_t d : domains) {
    const int reps = d <= 4096 ? 5 : (d <= 65536 ? 2 : 1);
    for (const bench::DawaInput& input : bench::kDawaInputs) {
      const std::vector<double> x = input.make(d, 0xDA3A + d);
      for (DawaPositions pos :
           {DawaPositions::kEvery, DawaPositions::kHalfOverlap}) {
        L1PartitionSolution solutions[2];
        bool ran[2] = {false, false};
        const DawaCostImpl impls[2] = {DawaCostImpl::kNaive,
                                       DawaCostImpl::kEngine};
        const char* impl_names[2] = {"naive", "engine"};
        for (int i = 0; i < 2; ++i) {
          // The O(d²) naive kEvery scan takes minutes past 2^16; skip it
          // there (the cap is an env knob, so full sweeps remain one setting
          // away).
          if (impls[i] == DawaCostImpl::kNaive &&
              pos == DawaPositions::kEvery && d > max_naive_d) {
            std::printf("d=%-7zu %-9s %-5s %-6s skipped "
                        "(> OSDP_BENCH_MAX_NAIVE_D)\n",
                        d, input.name, PosName(pos), impl_names[i]);
            continue;
          }
          const double best = bench::BestOf(reps, [&] {
            solutions[i] = SolveL1Partition(x, bucket_charge, pos, impls[i]);
          });
          ran[i] = true;
          results.push_back({input.name, d, PosName(pos), impl_names[i], best,
                             solutions[i].cost, solutions[i].buckets.size()});
        }
        if (!ran[0] || !ran[1]) continue;
        const L1PartitionSolution& naive = solutions[0];
        const L1PartitionSolution& engine = solutions[1];
        if (input.integer) {
          bool identical = naive.cost == engine.cost &&
                           naive.buckets.size() == engine.buckets.size();
          for (size_t i = 0; identical && i < naive.buckets.size(); ++i) {
            identical = naive.buckets[i].begin == engine.buckets[i].begin &&
                        naive.buckets[i].end == engine.buckets[i].end;
          }
          if (!identical) {
            std::printf("MISMATCH at %s d=%zu %s: naive and engine "
                        "disagree!\n",
                        input.name, d, PosName(pos));
            all_identical = false;
          }
        } else {
          const double rel =
              std::abs(naive.cost - engine.cost) / std::abs(naive.cost);
          noisy_max_rel = std::max(noisy_max_rel, rel);
        }
      }
    }
  }

  // Summary table with speedups.
  auto find = [&](const std::string& input, size_t d, const char* pos,
                  const char* impl) -> double {
    for (const Measurement& m : results) {
      if (m.input == input && m.d == d && m.positions == pos &&
          m.impl == impl) {
        return m.sec_per_solve;
      }
    }
    return 0.0;
  };
  TextTable text({"input", "d", "positions", "naive s", "engine s",
                  "speedup"});
  for (const bench::DawaInput& input : bench::kDawaInputs) {
    for (size_t d : domains) {
      for (const char* pos : {"every", "half"}) {
        const double tn = find(input.name, d, pos, "naive");
        const double te = find(input.name, d, pos, "engine");
        text.AddRow({input.name, std::to_string(d), pos,
                     tn > 0 ? TextTable::Fmt(tn, 4) : "-",
                     te > 0 ? TextTable::Fmt(te, 4) : "-",
                     (tn > 0 && te > 0) ? TextTable::Fmt(tn / te, 1) + "x"
                                        : "-"});
      }
    }
  }
  std::printf("\n%s\n", text.ToString().c_str());

  // Acceptance line: engine >= 10x at d = 2^16 under kEvery.
  for (const bench::DawaInput& input : bench::kDawaInputs) {
    const double tn16 = find(input.name, 65536, "every", "naive");
    const double te16 = find(input.name, 65536, "every", "engine");
    if (tn16 > 0 && te16 > 0) {
      std::printf("acceptance[%s, d=65536, kEvery]: %.1fx (>= 10x required)\n",
                  input.name, tn16 / te16);
    }
  }
  const bool noisy_agree = noisy_max_rel <= kNoisyCostTolerance;
  std::printf("cross-check: %s; noisy optimal costs agree to %.2g (%s)\n",
              all_identical ? "all integer naive/engine cells bit-identical"
                            : "MISMATCH DETECTED",
              noisy_max_rel, noisy_agree ? "ok" : "TOO FAR APART");

  bench::BenchJson json("dawa_partition", "BENCH_dawa.json");
  if (!json.ok()) return 1;
  std::fprintf(json.file(), "  \"bit_identical\": %s,\n",
               all_identical ? "true" : "false");
  std::fprintf(json.file(), "  \"noisy_max_rel_cost_diff\": %.3g,\n",
               noisy_max_rel);
  json.Records("results", results, [](FILE* f, const Measurement& m) {
    std::fprintf(f,
                 "{\"input\": \"%s\", \"d\": %zu, \"positions\": \"%s\", "
                 "\"impl\": \"%s\", \"sec_per_solve\": %.6g, "
                 "\"cost\": %.17g, \"buckets\": %zu}",
                 m.input.c_str(), m.d, m.positions.c_str(), m.impl.c_str(),
                 m.sec_per_solve, m.cost, m.buckets);
  });
  if (!json.Close()) return 1;
  std::printf("wrote %s (%zu measurements)\n", json.path().c_str(),
              results.size());
  return all_identical && noisy_agree ? 0 : 2;
}
