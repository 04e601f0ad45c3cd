// Benchmark of the parallel mechanism stage: seconds per interval-cost
// engine build (serial reference vs per-level sharded on the ThreadPool)
// and per end-to-end partition solve (build + DP), across domain sizes and
// a thread grid, plus the serial hierarchical release as a timing row.
// Every parallel cell is cross-checked bit-identical against its serial
// reference — the full deviation table for the engine, cost and buckets for
// the solve — and the bench exits non-zero on any divergence, making it a
// determinism gate as well as a profile.
//
// The engine build and the solve run on three inputs (bench_common.h):
// `spiky`, the integer SpikyData; `noisy`, SpikyData + Lap(2/ε₁), which is
// what DAWA's stage 1 hands the engine in the service; and `clustered`, a
// narrow band of distinct values with alternating outliers that stresses
// the engine's threshold walk. The hierarchical release runs on `spiky`.
//
// It also answers ROADMAP's standing question — does the partition build
// dominate large-domain histogram batches? — by reporting the build's share
// of the end-to-end solve per domain and input.
//
// Knobs:
//   OSDP_BENCH_MAX_D    caps the domain grid (default 262144 = 2^18;
//                       set 4096 for a CI smoke run)
//   OSDP_BENCH_THREADS  comma-separated worker grid (default "1,2,4";
//                       0 = inline pool, distinct from the no-pool serial
//                       reference labeled threads=-1 in the JSON)
//   OSDP_BENCH_REPS     repetitions per cell (best-of; default scales with d)
//   OSDP_BENCH_JSON     output path (default BENCH_mech_parallel.json)

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/random.h"
#include "src/eval/table_printer.h"
#include "src/hist/histogram.h"
#include "src/mech/dawa.h"
#include "src/mech/hierarchical.h"
#include "src/mech/interval_costs.h"
#include "src/runtime/thread_pool.h"

using namespace osdp;
using bench::BestOf;

namespace {

struct Measurement {
  std::string op;     // engine_build | dawa_solve | hier_release
  std::string input;  // spiky | noisy | clustered
  size_t d;
  long long threads;  // -1 = serial reference (no pool)
  double sec;
};

// Full-table comparison of two engines over every level and start position.
bool EnginesIdentical(const IntervalCostEngine& a, const IntervalCostEngine& b,
                      size_t d) {
  for (size_t len = 1; len <= d; len <<= 1) {
    for (size_t s = 0; s + len <= d; ++s) {
      if (a.Deviation(s, s + len) != b.Deviation(s, s + len)) return false;
    }
  }
  return a.Sum(0, d) == b.Sum(0, d);
}

bool SolutionsIdentical(const L1PartitionSolution& a,
                        const L1PartitionSolution& b) {
  if (a.cost != b.cost || a.buckets.size() != b.buckets.size()) return false;
  for (size_t i = 0; i < a.buckets.size(); ++i) {
    if (a.buckets[i].begin != b.buckets[i].begin ||
        a.buckets[i].end != b.buckets[i].end) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  const size_t max_d = bench::EnvSize("OSDP_BENCH_MAX_D", 262144);
  const std::vector<size_t> pool_sizes = bench::ThreadGrid({1, 2, 4});
  const std::vector<long long> thread_grid(pool_sizes.begin(),
                                          pool_sizes.end());

  std::vector<size_t> domains;
  for (size_t d = 4096; d <= 262144; d *= 4) {
    if (d <= max_d) domains.push_back(d);
  }
  if (domains.empty()) domains.push_back(max_d);

  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (size_t t : pool_sizes) {
    pools.push_back(std::make_unique<ThreadPool>(t));
  }

  const double bucket_charge = 8.0;
  std::vector<Measurement> results;
  bool all_identical = true;

  std::printf("=== parallel mechanism stage: serial reference vs pool ===\n");
  std::printf("(domain grid capped at %zu; hardware_concurrency=%u)\n\n",
              max_d, std::thread::hardware_concurrency());

  for (size_t d : domains) {
    const int reps = bench::Reps(d <= 16384 ? 5 : (d <= 65536 ? 3 : 2));
    for (const bench::DawaInput& input : bench::kDawaInputs) {
      const std::vector<double> x = input.make(d, 0xDA3A + d);

      // --- interval-cost engine build: serial reference, then the grid. ---
      std::unique_ptr<IntervalCostEngine> serial_engine;
      const double serial_build = BestOf(reps, [&] {
        serial_engine = std::make_unique<IntervalCostEngine>(x);
      });
      results.push_back({"engine_build", input.name, d, -1, serial_build});
      for (size_t p = 0; p < pools.size(); ++p) {
        std::unique_ptr<IntervalCostEngine> parallel_engine;
        const double best = BestOf(reps, [&] {
          parallel_engine =
              std::make_unique<IntervalCostEngine>(x, pools[p].get());
        });
        results.push_back({"engine_build", input.name, d, thread_grid[p],
                           best});
        if (!EnginesIdentical(*serial_engine, *parallel_engine, d)) {
          std::printf("MISMATCH: engine build diverged at %s d=%zu "
                      "threads=%lld\n",
                      input.name, d, thread_grid[p]);
          all_identical = false;
        }
      }

      // --- end-to-end partition solve (build + DP). ---
      L1PartitionSolution serial_solution;
      const double serial_solve = BestOf(reps, [&] {
        serial_solution = SolveL1Partition(x, bucket_charge,
                                           DawaPositions::kEvery,
                                           DawaCostImpl::kEngine);
      });
      results.push_back({"dawa_solve", input.name, d, -1, serial_solve});
      for (size_t p = 0; p < pools.size(); ++p) {
        L1PartitionSolution parallel_solution;
        const double best = BestOf(reps, [&] {
          parallel_solution =
              SolveL1Partition(x, bucket_charge, DawaPositions::kEvery,
                               DawaCostImpl::kEngine, pools[p].get());
        });
        results.push_back({"dawa_solve", input.name, d, thread_grid[p], best});
        if (!SolutionsIdentical(serial_solution, parallel_solution)) {
          std::printf("MISMATCH: partition solve diverged at %s d=%zu "
                      "threads=%lld\n",
                      input.name, d, thread_grid[p]);
          all_identical = false;
        }
      }

      // ROADMAP's profiling question: the engine build's share of the solve.
      std::printf("d=%-7zu %-9s build %.4fs  solve %.4fs  (build share "
                  "%.0f%%)\n",
                  d, input.name, serial_build, serial_solve,
                  100.0 * serial_build / serial_solve);
    }

    // --- hierarchical release: serial only. Its noise is drawn serially
    // and its consistency passes are ~12 µs at d = 4096, less than the
    // per-level barriers of a pooled version, so it has no pool leg. ---
    Histogram hx{bench::SpikyData(d, 0xDA3A + d)};
    Histogram estimate(d);
    const double serial_hier = BestOf(reps, [&] {
      Rng rng(0x41E5 + d);
      estimate = *HierarchicalRelease(hx, 0.5, HierarchicalOptions{}, rng);
    });
    results.push_back({"hier_release", "spiky", d, -1, serial_hier});
    std::printf("d=%-7zu spiky     hier %.4fs\n", d, serial_hier);
  }

  // Summary table: serial vs best pooled time per op × input × d.
  auto find = [&](const std::string& op, const std::string& input, size_t d,
                  long long threads) -> double {
    for (const Measurement& m : results) {
      if (m.op == op && m.input == input && m.d == d && m.threads == threads) {
        return m.sec;
      }
    }
    return 0.0;
  };
  TextTable text(
      {"op", "input", "d", "serial s", "pooled s (best)", "speedup"});
  for (const char* op : {"engine_build", "dawa_solve"}) {
    for (const bench::DawaInput& input : bench::kDawaInputs) {
      for (size_t d : domains) {
        const double ts = find(op, input.name, d, -1);
        double tp = 1e300;
        for (long long t : thread_grid) {
          const double v = find(op, input.name, d, t);
          if (v > 0) tp = std::min(tp, v);
        }
        if (ts <= 0 || tp >= 1e300) continue;
        text.AddRow({op, input.name, std::to_string(d), TextTable::Fmt(ts, 4),
                     TextTable::Fmt(tp, 4),
                     TextTable::Fmt(ts / tp, 1) + "x"});
      }
    }
  }
  std::printf("\n%s\n", text.ToString().c_str());
  std::printf("cross-check: %s\n",
              all_identical
                  ? "all parallel cells bit-identical to serial"
                  : "MISMATCH DETECTED");

  bench::BenchJson json("mech_parallel", "BENCH_mech_parallel.json");
  if (!json.ok()) return 1;
  std::fprintf(json.file(), "  \"bit_identical\": %s,\n",
               all_identical ? "true" : "false");
  json.Records("results", results, [](FILE* f, const Measurement& m) {
    std::fprintf(f,
                 "{\"op\": \"%s\", \"input\": \"%s\", \"d\": %zu, "
                 "\"threads\": %lld, \"sec\": %.6g}",
                 m.op.c_str(), m.input.c_str(), m.d, m.threads, m.sec);
  });
  if (!json.Close()) return 1;
  std::printf("wrote %s (%zu measurements)\n", json.path().c_str(),
              results.size());
  return all_identical ? 0 : 2;
}
