// Streaming ingest benchmark: rows/sec through the snapshot-isolated write
// path, and reader throughput while the dataset moves underneath.
//
//   append        TableBuilder::Append alone (batch-proportional work:
//                 columnar concat + incremental policy classification), no
//                 snapshot cut — the marginal cost of accepting a batch.
//   ingest        QueryService::Ingest = append + BuildSnapshot + atomic
//                 publish. Generations share one grow-only chunk spine per
//                 column and the policy mask's 4096-row word blocks, so
//                 BuildSnapshot copies no cell, no chunk pointer and no mask
//                 word: it is O(1) in the table size, and ingest rows/sec
//                 tracks append rows/sec at every batch size (the "publish
//                 overhead" column).
//   large base    the same append/ingest pair at 1k-row batches onto a base
//                 of 8 × OSDP_BENCH_MAX_ROWS rows (8M at the default, rounded
//                 up to a doubling of 64k rows), under the same gate — the
//                 row where a publish that grew with the table would show.
//                 Both 1k-row-batch rows ingest 1000 batches at the default
//                 size (the large base 100 to 1000, OSDP_BENCH_MAX_ROWS/1000).
//   snapshot      BuildSnapshot alone, median µs per call, on tables of 1M
//                 and 16M rows (2^20 and 2^24): flat in the table size.
//   mixed         one writer thread ingesting batches while analyst
//                 sessions stream count queries: ingest rows/sec and
//                 queries/sec under contention. The run is a soak run
//                 (tests/service_soak.h) with a timed loop of its own.
//
// Each append/ingest row reports the fastest of three timed passes after an
// untimed one, with that pass's minor page faults (getrusage, this process).
//
// Cross-checks (any failure exits non-zero; the ctest smoke run relies on
// this):
//   * after every append/ingest pass, the final snapshot's non-sensitive mask
//     must be bit-identical to a from-scratch Policy::NonSensitiveRowMask
//     over an independently rebuilt table;
//   * the mixed phase must pass every CheckSoak invariant
//     (docs/robustness.md), bit-identical serial replay included;
//   * publish overhead (ingest_sec / append_sec) at the smallest batch size
//     and on the large base must not exceed OSDP_BENCH_MAX_PUBLISH_OVERHEAD
//     (default 1.5; "0" disables) — the publish-overhead regression gate.
//
// The large tables are doubled from one 64k-row census table: aligned
// self-appends share chunks, so a 16M-row table holds 64k rows of cells
// and the runs stay small in memory. Publishing touches only the spine and
// mask structure, which a doubled table has at full size.
//
// Knobs: OSDP_BENCH_MAX_ROWS caps the ingested-row grid (default 1M; the CI
// smoke run uses 50000), OSDP_BENCH_THREADS the mixed-phase pool size
// (default 2), OSDP_BENCH_JSON the output path (default BENCH_ingest.json),
// OSDP_BENCH_MAX_PUBLISH_OVERHEAD the regression gate above.
// The JSON records hardware_concurrency so flat concurrency numbers on a
// starved machine read as what they are.

#include <sys/resource.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/engine.h"
#include "src/data/predicate.h"
#include "src/data/table_builder.h"
#include "src/eval/table_printer.h"
#include "src/runtime/query_service.h"
#include "tests/service_soak.h"

using namespace osdp;
using bench::NowSec;

namespace {

constexpr size_t kSeedRows = 10000;
constexpr uint64_t kSeedSeed = 0x05D9;
constexpr uint64_t kRootSeed = 0x16E5;

OsdpEngine BenchEngine(Table seed = CensusRows(kSeedRows, kSeedSeed)) {
  OsdpEngine::Options eopts;
  eopts.total_epsilon = 1e9;  // throughput bench, not a budget bench
  return *OsdpEngine::Create(std::move(seed), CensusPolicy(), eopts);
}

// A chunk-aligned census table of at least `min_rows` rows: 64k rows
// doubled by aligned self-appends, which share chunks instead of copying.
Table DoubledCensus(size_t min_rows) {
  Table t = CensusRows(16 * kChunkRows, kSeedSeed);
  while (t.num_rows() < min_rows) {
    if (!t.AppendRows(t).ok()) std::abort();
  }
  return t;
}

std::nullopt_t Failed(const char* what) {
  std::fprintf(stderr, "BIT-IDENTITY VIOLATION: %s\n", what);
  return std::nullopt;
}

struct Measurement {
  std::string op;
  size_t base_rows = 0;    // rows in the table before the measurement
  size_t batch_rows = 0;
  size_t total_rows = 0;   // rows ingested during the measurement
  size_t generations = 0;  // snapshots published
  size_t queries = 0;      // mixed phase only
  double sec = 0.0;
  double rows_per_sec = 0.0;
  double queries_per_sec = 0.0;
  double publish_overhead = 0.0;  // ingest_sec / append_sec (ingest rows)
  bench::LatencyStats query_lat;  // mixed phase: per-query server durations
  long minor_faults = 0;          // append/ingest rows: the reported pass's
};

// The wall seconds and minor page faults (getrusage, this process) of one
// timed pass: the difference of two Now() readings.
struct Pass {
  double sec = 0.0;
  long faults = 0;
};

Pass Now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return {NowSec(), usage.ru_minflt};
}

Pass Since(const Pass& start) {
  const Pass now = Now();
  return {now.sec - start.sec, now.faults - start.faults};
}

// One untimed warm-up call of `pass`, then the fastest of three timed ones,
// with that call's faults. `pass` builds its builder or service before its
// own Now() and returns Since() it, or nothing after a failed cross-check.
template <typename Fn>
std::optional<Pass> WarmBest(const Fn& pass) {
  std::optional<Pass> best;
  for (int i = 0; i < 4; ++i) {
    const std::optional<Pass> p = pass();
    if (!p) return std::nullopt;
    if (i > 0 && (!best || p->sec < best->sec)) best = p;
  }
  return best;
}

// Rebuilds the dataset as of `snapshot`'s generation from `seed` and the
// first `generation` of `batches`, and checks `snapshot` against a
// from-scratch classification.
bool SnapshotMatchesRebuild(const Snapshot& snapshot, const Table& seed,
                            const std::vector<Table>& batches) {
  Table rebuilt = seed;
  for (uint64_t g = 1; g <= snapshot.generation; ++g) {
    if (!rebuilt.AppendRows(batches[g - 1]).ok()) return false;
  }
  return rebuilt.num_rows() == snapshot.table.num_rows() &&
         CensusPolicy().NonSensitiveRowMask(rebuilt) == snapshot.non_sensitive;
}

// `batches` of `batch_rows` pre-generated rows: measure the ingest path, not
// the generator. At most kDistinctBatches are generated; the rest are
// copies of them, which share their chunks, so a thousand-batch row holds a
// hundred batches of cells.
constexpr size_t kDistinctBatches = 100;
std::vector<Table> MakeBatches(size_t batches, size_t batch_rows,
                               uint64_t seed_base) {
  std::vector<Table> out;
  out.reserve(batches);
  for (size_t g = 1; g <= batches; ++g) {
    out.push_back(g <= kDistinctBatches
                      ? CensusRows(batch_rows, seed_base + g)
                      : out[(g - 1) % kDistinctBatches]);
  }
  return out;
}

// Appends `batches` onto `seed` twice: through a TableBuilder alone (no
// snapshot cut), and through QueryService::Ingest (one published snapshot
// per batch), each on a fresh builder or service per WarmBest pass. Records
// both and returns ingest_sec / append_sec, or nothing after a failed
// cross-check.
std::optional<double> MeasureAppendAndIngest(
    const Table& seed, const std::vector<Table>& batches,
    std::vector<Measurement>* results) {
  const size_t n = batches.size();
  const size_t batch_rows = batches.front().num_rows();
  const std::optional<Pass> append = WarmBest([&]() -> std::optional<Pass> {
    TableBuilder builder = *TableBuilder::Create(seed, CensusPolicy());
    const Pass start = Now();
    for (const Table& batch : batches) {
      if (!builder.Append(batch).ok()) return Failed("append status");
    }
    const Pass took = Since(start);
    if (!SnapshotMatchesRebuild(*builder.BuildSnapshot(n), seed, batches)) {
      return Failed("append-only incremental mask vs rebuild");
    }
    return took;
  });
  if (!append) return std::nullopt;
  const std::optional<Pass> ingest = WarmBest([&]() -> std::optional<Pass> {
    auto service = *QueryService::Create(BenchEngine(seed), {});
    const Pass start = Now();
    for (const Table& batch : batches) {
      if (!service->Ingest(batch).ok()) return Failed("ingest status");
    }
    const Pass took = Since(start);
    if (service->current_generation() != n) return Failed("generation");
    if (!SnapshotMatchesRebuild(*service->current_snapshot(), seed, batches)) {
      return Failed("published snapshot vs rebuild");
    }
    return took;
  });
  if (!ingest) return std::nullopt;

  const double overhead = ingest->sec / append->sec;
  const double rows = static_cast<double>(n * batch_rows);
  results->push_back({"append", seed.num_rows(), batch_rows, n * batch_rows, 0,
                      0, append->sec, rows / append->sec, 0.0, 0.0, {},
                      append->faults});
  results->push_back({"ingest", seed.num_rows(), batch_rows, n * batch_rows, n,
                      0, ingest->sec, rows / ingest->sec, 0.0, overhead, {},
                      ingest->faults});
  return overhead;
}

// The publish-overhead gate: false, after saying why, when `overhead`
// exceeds a positive `limit`.
bool OverheadWithinGate(double overhead, double limit, size_t batch_rows,
                        size_t base_rows) {
  if (limit <= 0.0 || overhead <= limit) return true;
  std::fprintf(stderr,
               "PUBLISH-OVERHEAD REGRESSION: %.2fx at %zu-row batches onto "
               "%zu rows (limit %.2fx) — snapshot publish no longer keeps "
               "pace with append\n",
               overhead, batch_rows, base_rows, limit);
  return false;
}

// Median µs of one BuildSnapshot on a builder seeded with a `rows`-row
// table after one 1000-row append (so its tail is partial and its spines
// have grown once, as in steady ingest).
double BuildSnapshotMedianUs(size_t rows) {
  TableBuilder builder =
      *TableBuilder::Create(DoubledCensus(rows), CensusPolicy());
  if (!builder.Append(CensusRows(1000, 0xD000)).ok()) std::abort();
  constexpr int kReps = 201;
  std::vector<SnapshotPtr> cut;
  cut.reserve(kReps);
  std::vector<double> us;
  us.reserve(kReps);
  for (int r = 0; r < kReps; ++r) {
    const double t0 = NowSec();
    cut.push_back(builder.BuildSnapshot(static_cast<uint64_t>(r) + 1));
    us.push_back((NowSec() - t0) * 1e6);
  }
  return bench::Median(us);
}

}  // namespace

int main() {
#ifdef __GLIBC__
  // glibc moves its mmap and heap-trim thresholds with the allocation
  // history, so whether a row's warm-up pages were still mapped in its timed
  // pass depended on the rows before it. Fixed thresholds (the largest mmap
  // threshold, and no trimming) give every row the same allocator state.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
#endif
  const size_t max_rows = bench::EnvSize("OSDP_BENCH_MAX_ROWS", 1000000);
  const size_t mixed_threads = bench::EnvSize("OSDP_BENCH_THREADS", 2);

  const double max_publish_overhead =
      bench::EnvGate("OSDP_BENCH_MAX_PUBLISH_OVERHEAD", 1.5);

  std::vector<Measurement> results;

  std::printf("=== streaming ingest: rows/sec through the snapshot path ===\n");
  std::printf("(hardware_concurrency=%u; ingested rows capped at %zu)\n\n",
              std::thread::hardware_concurrency(), max_rows);

  // --- append / ingest, by batch size ----------------------------------
  TextTable text({"base rows", "batch rows", "total rows", "append rows/s",
                  "append faults", "ingest rows/s", "ingest faults",
                  "publish overhead"});
  const auto add_row = [&](const Measurement& append,
                           const Measurement& ingest) {
    text.AddRow({std::to_string(append.base_rows),
                 std::to_string(append.batch_rows),
                 std::to_string(append.total_rows),
                 TextTable::FmtAuto(append.rows_per_sec),
                 std::to_string(append.minor_faults),
                 TextTable::FmtAuto(ingest.rows_per_sec),
                 std::to_string(ingest.minor_faults),
                 TextTable::Fmt(ingest.publish_overhead, 1) + "x"});
  };
  const Table seed = CensusRows(kSeedRows, kSeedSeed);
  bool overhead_checked = false;
  for (size_t batch_rows : {size_t{1000}, size_t{10000}, size_t{100000}}) {
    // A thousand batches at most: at 1k-row batches a timed pass then takes
    // tens of milliseconds, long enough to time steadily, and larger batch
    // sizes stop at max_rows.
    const size_t total = std::min(max_rows, batch_rows * size_t{1000});
    if (batch_rows > total) continue;
    const size_t batches = total / batch_rows;
    if (batches == 0) continue;

    const std::optional<double> overhead = MeasureAppendAndIngest(
        seed, MakeBatches(batches, batch_rows, 0xB000), &results);
    if (!overhead) return 1;
    add_row(results[results.size() - 2], results.back());

    // The regression gate runs at the smallest (most publish-heavy) batch
    // size: before chunked columns this row sat at ~8x; a publish that copies
    // no cell keeps it near 1x.
    if (!overhead_checked &&
        !OverheadWithinGate(*overhead, max_publish_overhead, batch_rows,
                            seed.num_rows())) {
      return 1;
    }
    overhead_checked = true;
  }

  // --- large base: 1k-row batches onto 8 × max_rows rows ------------------
  {
    const Table base = DoubledCensus(8 * max_rows);
    const size_t batches = std::clamp<size_t>(max_rows / 1000, 100, 1000);
    const std::optional<double> overhead = MeasureAppendAndIngest(
        base, MakeBatches(batches, 1000, 0xB800), &results);
    if (!overhead) return 1;
    add_row(results[results.size() - 2], results.back());
    if (!OverheadWithinGate(*overhead, max_publish_overhead, 1000,
                            base.num_rows())) {
      return 1;
    }
  }
  std::printf("%s\n", text.ToString().c_str());

  // --- BuildSnapshot alone at 1M and 16M rows ----------------------------
  for (size_t rows : {size_t{1} << 20, size_t{1} << 24}) {
    const double us = BuildSnapshotMedianUs(rows);
    results.push_back({"build_snapshot", rows, 0, 0, 1, 0, us * 1e-6, 0.0,
                       0.0, 0.0, {}});
    std::printf("BuildSnapshot at %zu rows: %.2f us (median of 201)\n", rows,
                us);
  }
  std::printf("\n");

  // --- mixed: writer vs analyst sessions --------------------------------
  {
    constexpr size_t kMixedBatchRows = 5000;
    const size_t batches =
        std::max<size_t>(1, std::min(max_rows, size_t{100000}) /
                                kMixedBatchRows);
    constexpr double kEps = 1e-4;

    SoakConfig config;
    config.seed = kRootSeed;
    config.seed_rows = kSeedRows;
    config.readers = 2;
    config.queries_per_batch = 1;
    config.pool_threads = mixed_threads;
    SoakRun run = OpenSoak(config);
    const std::vector<Table> batch_tables =
        MakeBatches(batches, kMixedBatchRows, 0xC000);
    std::atomic<bool> done{false};

    const double t0 = NowSec();
    std::thread writer([&] {
      for (const Table& batch : batch_tables) SoakIngest(&run, batch);
      done.store(true);
    });
    std::vector<std::thread> readers;
    for (int s = 0; s < config.readers; ++s) {
      readers.emplace_back([&, s] {
        for (int q = 0; !done.load() || q == 0; ++q) {  // at least one each
          const int bound = 10 + (7 * s + 13 * q) % 80;
          SoakSubmit(&run, s,
                     {CountRequest{Predicate::Le("age", Value(bound)), kEps}});
        }
      });
    }
    writer.join();
    for (std::thread& t : readers) t.join();
    const double mixed_sec = NowSec() - t0;

    size_t queries = 0;
    std::vector<double> latencies_us;
    for (const SoakReader& r : run.readers) {
      queries += r.delivered.size();
      for (const auto& delivery : r.delivered) {
        latencies_us.push_back(delivery.second.server_duration_micros);
      }
    }
    FinishSoak(&run);
    const std::vector<std::string> violations = CheckSoak(config, run);
    for (const std::string& v : violations) {
      std::fprintf(stderr, "MIXED-PHASE VIOLATION: %s\n", v.c_str());
    }
    if (!violations.empty()) return 1;
    const bench::LatencyStats lat = bench::SummarizeLatencies(latencies_us);

    const size_t ingested = batches * kMixedBatchRows;
    results.push_back({"mixed", kSeedRows, kMixedBatchRows, ingested, batches,
                       queries,
                       mixed_sec, static_cast<double>(ingested) / mixed_sec,
                       static_cast<double>(queries) / mixed_sec, 0.0, lat, 0});
    std::printf(
        "mixed (%zu pool threads): %zu rows over %zu generations + %zu "
        "queries from %d sessions in %.3gs (%.3g rows/s, %.3g q/s); every "
        "soak invariant held\n"
        "mixed query latency: p50 %.1f us, p95 %.1f us, p99 %.1f us, "
        "max %.1f us\n\n",
        mixed_threads, ingested, batches, queries, config.readers, mixed_sec,
        static_cast<double>(ingested) / mixed_sec,
        static_cast<double>(queries) / mixed_sec, lat.p50, lat.p95, lat.p99,
        lat.max);
  }

  bench::BenchJson json("ingest", "BENCH_ingest.json");
  if (!json.ok()) return 1;
  json.Records("results", results, [](FILE* f, const Measurement& m) {
    std::fprintf(
        f,
        "{\"op\": \"%s\", \"base_rows\": %zu, \"batch_rows\": %zu, "
        "\"total_rows\": %zu, "
        "\"generations\": %zu, \"queries\": %zu, \"sec\": %.6g, "
        "\"rows_per_sec\": %.6g, \"queries_per_sec\": %.6g, "
        "\"publish_overhead\": %.6g, \"query_p50_us\": %.3f, "
        "\"query_p95_us\": %.3f, \"query_p99_us\": %.3f, "
        "\"query_max_us\": %.3f, \"minor_faults\": %ld}",
        m.op.c_str(), m.base_rows, m.batch_rows, m.total_rows, m.generations,
        m.queries,
        m.sec, m.rows_per_sec, m.queries_per_sec, m.publish_overhead,
        m.query_lat.p50, m.query_lat.p95, m.query_lat.p99, m.query_lat.max,
        m.minor_faults);
  });
  if (!json.Close()) return 1;
  std::printf("wrote %s (%zu measurements)\n", json.path().c_str(),
              results.size());
  return 0;
}
