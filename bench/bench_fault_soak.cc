// Fault-injection soak for the QueryService robustness layer
// (docs/robustness.md): every fault point in the catalog, round-robin —
// plus a fault-free baseline round — armed with repeating schedules while
// analyst threads submit mixed batches (some carrying already-passed
// deadlines) under an admission cap, a canceller fires a batch token
// mid-round, and a writer ingests through both failure windows. Each round is
// one RunSoak (tests/service_soak.h).
//
// This is a *soak*, not a throughput bench: the numbers it prints (queries
// delivered / failed by class, injected fires, q/s) are diagnostics.
// "submitted" counts every slot offered, including those of the shed
// attempts RunSoak repeats until the admission cap lets a batch in. What it
// certifies is every CheckSoak invariant (docs/robustness.md) after every
// round: it prints each violation to stderr and exits non-zero on any; the
// bench_fault_soak_smoke ctest target runs it on every test run. And
// implicitly: no injected fault, overload, deadline, or cancellation ever
// reaches std::terminate.
//
// Knobs: OSDP_BENCH_SOAK_ROUNDS (default 16 — two laps of the 8-entry
// schedule), OSDP_BENCH_MAX_ROWS (seed table rows, default 20000),
// OSDP_BENCH_SOAK_READERS (analyst threads, default 4), OSDP_BENCH_JSON
// (artifact path, default BENCH_fault_soak.json).

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/eval/table_printer.h"
#include "tests/service_soak.h"

using namespace osdp;

namespace {

struct RoundStats {
  size_t round = 0;
  const char* fault = "none";
  size_t submitted = 0;
  size_t delivered = 0;
  size_t rejected = 0;
  size_t deadline = 0;
  size_t cancelled = 0;
  size_t injected = 0;
  uint64_t fires = 0;
  double seconds = 0.0;
  bench::LatencyStats lat;  // delivered-query server durations (us)
};

}  // namespace

int main() {
  const size_t rounds = bench::EnvSize("OSDP_BENCH_SOAK_ROUNDS", 16);
  const size_t seed_rows = bench::EnvSize("OSDP_BENCH_MAX_ROWS", 20000);
  const int num_readers = bench::EnvInt("OSDP_BENCH_SOAK_READERS", 4);
  // Round r arms kSoakFaults[r % 8 - 1]; every eighth round is a fault-free
  // baseline.
  const size_t schedule_size = std::size(kSoakFaults) + 1;

  std::printf("=== fault soak: %zu rounds, %d readers, %zu seed rows ===\n\n",
              rounds, num_readers, seed_rows);

  size_t violations = 0;
  std::vector<RoundStats> stats;
  for (size_t round = 0; round < rounds; ++round) {
    SoakConfig config;
    config.seed = 0x50AC + round;
    config.seed_rows = seed_rows;
    config.readers = num_readers;
    config.hostile = true;
    if (round % schedule_size != 0) {
      config.fault = kSoakFaults[round % schedule_size - 1];
    }

    const double t0 = bench::NowSec();
    const SoakRun run = RunSoak(config);
    RoundStats rs;
    rs.seconds = bench::NowSec() - t0;
    rs.round = round;
    if (config.fault) {
      rs.fault = config.fault->point;
      rs.fires = FaultRegistry::Global().fires(rs.fault);
    }
    std::vector<double> latencies;
    for (const SoakReader& r : run.readers) {
      for (const auto& delivery : r.delivered) {
        latencies.push_back(delivery.second.server_duration_micros);
      }
      for (const SoakFailure& failure : r.failed) {
        switch (failure.status.code()) {
          case StatusCode::kResourceExhausted: ++rs.rejected; break;
          case StatusCode::kDeadlineExceeded: ++rs.deadline; break;
          case StatusCode::kCancelled: ++rs.cancelled; break;
          default: ++rs.injected;
        }
      }
      rs.delivered += r.delivered.size();
      rs.submitted += r.delivered.size() + r.failed.size();
    }
    rs.lat = bench::SummarizeLatencies(latencies);
    stats.push_back(rs);

    for (const std::string& v : CheckSoak(config, run)) {
      std::fprintf(stderr, "round %zu, fault %s: %s\n", round, rs.fault,
                   v.c_str());
      ++violations;
    }
  }

  TextTable text({"round", "fault", "submitted", "delivered", "shed",
                  "deadline", "cancelled", "injected", "fires", "replayed",
                  "q/s", "p50 us", "p99 us"});
  for (size_t i = 0; i < stats.size(); ++i) {
    const RoundStats& rs = stats[i];
    text.AddRow({std::to_string(i), rs.fault, std::to_string(rs.submitted),
                 std::to_string(rs.delivered), std::to_string(rs.rejected),
                 std::to_string(rs.deadline), std::to_string(rs.cancelled),
                 std::to_string(rs.injected), std::to_string(rs.fires),
                 std::to_string(rs.delivered),  // CheckSoak replays them all
                 TextTable::FmtAuto(static_cast<double>(rs.submitted) /
                                    rs.seconds),
                 TextTable::Fmt(rs.lat.p50, 1), TextTable::Fmt(rs.lat.p99, 1)});
  }
  std::printf("%s\n", text.ToString().c_str());

  bench::BenchJson json("fault_soak", "BENCH_fault_soak.json");
  if (!json.ok()) return 1;
  std::fprintf(json.file(), "  \"violations\": %zu,\n", violations);
  json.Records("rounds", stats, [](FILE* f, const RoundStats& rs) {
    std::fprintf(
        f,
        "{\"round\": %zu, \"fault\": \"%s\", \"submitted\": %zu, "
        "\"delivered\": %zu, \"shed\": %zu, \"deadline\": %zu, "
        "\"cancelled\": %zu, \"injected\": %zu, \"fires\": %llu, "
        "\"replayed\": %zu, \"seconds\": %.6f, \"query_p50_us\": %.3f, "
        "\"query_p95_us\": %.3f, \"query_p99_us\": %.3f, "
        "\"query_max_us\": %.3f}",
        rs.round, rs.fault, rs.submitted, rs.delivered, rs.rejected,
        rs.deadline, rs.cancelled, rs.injected,
        static_cast<unsigned long long>(rs.fires), rs.delivered, rs.seconds,
        rs.lat.p50, rs.lat.p95, rs.lat.p99, rs.lat.max);
  });
  if (!json.Close()) return 1;

  if (violations > 0) {
    std::fprintf(stderr, "\nFAULT SOAK FAILED: %zu invariant violation(s)\n",
                 violations);
    return 1;
  }
  std::printf("wrote %s (%zu rounds); all invariants held\n",
              json.path().c_str(), stats.size());
  return 0;
}
