// Micro-benchmark of the DAWA L1-partition engines: seconds per solve for
// the naive reference DP (per-interval O(len) cost scans — O(d²) total under
// kEvery) versus the precomputed interval-cost engine
// (src/mech/interval_costs.h — O(d log² d) build, O(1) per candidate), across
// domain sizes and both candidate-position modes. Every cell where both
// implementations run is also cross-checked for the bit-identical optimal
// cost and buckets the property tests pin down.
//
// Knobs:
//   OSDP_BENCH_MAX_D        caps the domain grid (default 262144 = 2^18;
//                           set 4096 for a CI smoke run)
//   OSDP_BENCH_MAX_NAIVE_D  caps the domains the naive kEvery path runs at
//                           (default 65536 = 2^16 — the acceptance point;
//                           beyond that the O(d²) scan takes minutes)
//   OSDP_BENCH_JSON         output path (default BENCH_dawa.json)

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/eval/table_printer.h"
#include "src/mech/dawa.h"

using namespace osdp;

namespace {

struct Measurement {
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

  std::printf("=== DAWA L1-partition: naive reference DP vs cost engine ===\n");
  std::printf("(domain grid capped at %zu; naive kEvery capped at %zu)\n\n",
              max_d, max_naive_d);

  for (size_t d : domains) {
    const std::vector<double> x = bench::SpikyData(d, 0xDA3A + d);
    const int reps = d <= 4096 ? 5 : (d <= 65536 ? 2 : 1);

    for (DawaPositions pos :
         {DawaPositions::kEvery, DawaPositions::kHalfOverlap}) {
      L1PartitionSolution solutions[2];
      bool ran[2] = {false, false};
      const DawaCostImpl impls[2] = {DawaCostImpl::kNaive,
                                     DawaCostImpl::kEngine};
      const char* impl_names[2] = {"naive", "engine"};
      for (int i = 0; i < 2; ++i) {
        // The O(d²) naive kEvery scan takes minutes past 2^16; skip it there
        // (the cap is an env knob, so full sweeps remain one setting away).
        if (impls[i] == DawaCostImpl::kNaive &&
            pos == DawaPositions::kEvery && d > max_naive_d) {
          std::printf("d=%-7zu %-5s %-6s skipped (> OSDP_BENCH_MAX_NAIVE_D)\n",
                      d, PosName(pos), impl_names[i]);
          continue;
        }
        const double best = bench::BestOf(reps, [&] {
          solutions[i] = SolveL1Partition(x, bucket_charge, pos, impls[i]);
        });
        ran[i] = true;
        results.push_back({d, PosName(pos), impl_names[i], best,
                           solutions[i].cost, solutions[i].buckets.size()});
      }
      if (ran[0] && ran[1]) {
        bool identical = solutions[0].cost == solutions[1].cost &&
                         solutions[0].buckets.size() ==
                             solutions[1].buckets.size();
        for (size_t i = 0; identical && i < solutions[0].buckets.size(); ++i) {
          identical = solutions[0].buckets[i].begin ==
                          solutions[1].buckets[i].begin &&
                      solutions[0].buckets[i].end == solutions[1].buckets[i].end;
        }
        if (!identical) {
          std::printf("MISMATCH at d=%zu %s: naive and engine disagree!\n", d,
                      PosName(pos));
          all_identical = false;
        }
      }
    }
  }

  // Summary table with speedups.
  auto find = [&](size_t d, const char* pos, const char* impl) -> double {
    for (const Measurement& m : results) {
      if (m.d == d && m.positions == pos && m.impl == impl) {
        return m.sec_per_solve;
      }
    }
    return 0.0;
  };
  TextTable text({"d", "positions", "naive s", "engine s", "speedup"});
  for (size_t d : domains) {
    for (const char* pos : {"every", "half"}) {
      const double tn = find(d, pos, "naive");
      const double te = find(d, pos, "engine");
      text.AddRow({std::to_string(d), pos,
                   tn > 0 ? TextTable::Fmt(tn, 4) : "-",
                   te > 0 ? TextTable::Fmt(te, 4) : "-",
                   (tn > 0 && te > 0) ? TextTable::Fmt(tn / te, 1) + "x"
                                      : "-"});
    }
  }
  std::printf("\n%s\n", text.ToString().c_str());

  // Acceptance line: engine >= 10x at d = 2^16 under kEvery.
  const double tn16 = find(65536, "every", "naive");
  const double te16 = find(65536, "every", "engine");
  if (tn16 > 0 && te16 > 0) {
    std::printf("acceptance[d=65536, kEvery]: %.1fx (>= 10x required)\n",
                tn16 / te16);
  }
  std::printf("cross-check: %s\n",
              all_identical ? "all naive/engine cells bit-identical"
                            : "MISMATCH DETECTED");

  bench::BenchJson json("dawa_partition", "BENCH_dawa.json");
  if (!json.ok()) return 1;
  std::fprintf(json.file(), "  \"bit_identical\": %s,\n",
               all_identical ? "true" : "false");
  json.Records("results", results, [](FILE* f, const Measurement& m) {
    std::fprintf(f,
                 "{\"d\": %zu, \"positions\": \"%s\", \"impl\": \"%s\", "
                 "\"sec_per_solve\": %.6g, \"cost\": %.17g, \"buckets\": %zu}",
                 m.d, m.positions.c_str(), m.impl.c_str(), m.sec_per_solve,
                 m.cost, m.buckets);
  });
  if (!json.Close()) return 1;
  std::printf("wrote %s (%zu measurements)\n", json.path().c_str(),
              results.size());
  return all_identical ? 0 : 2;
}
