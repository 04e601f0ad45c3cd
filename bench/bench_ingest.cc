// Streaming ingest benchmark: rows/sec through the snapshot-isolated write
// path, and reader throughput while the dataset moves underneath.
//
//   append        TableBuilder::Append alone (batch-proportional work:
//                 columnar concat + incremental policy classification), no
//                 snapshot cut — the marginal cost of accepting a batch.
//   ingest        QueryService::Ingest = append + BuildSnapshot + atomic
//                 publish. With chunked copy-on-write columns BuildSnapshot
//                 copies chunk *pointers* plus the O(rows/64) policy-mask
//                 words and no cell, so on this grid's tables (at most 100k
//                 rows) ingest rows/sec tracks append rows/sec at every
//                 batch size (the "publish overhead" column). The copy still
//                 grows with the table (ROADMAP item 7).
//   mixed         one writer thread ingesting batches while analyst
//                 sessions stream count queries: ingest rows/sec and
//                 queries/sec under contention.
//
// Cross-checks (any failure exits non-zero; the ctest smoke run relies on
// this):
//   * after every run, the final snapshot's non-sensitive mask must be
//     bit-identical to a from-scratch Policy::NonSensitiveRowMask over an
//     independently rebuilt table;
//   * every answer recorded during the mixed phase must be bit-identical to
//     a serial replay of its (generation, session, seq) — the same property
//     tests/query_service_test.cc pins, exercised here at bench scale;
//   * publish overhead (ingest_sec / append_sec) at the smallest batch size
//     must not exceed OSDP_BENCH_MAX_PUBLISH_OVERHEAD (default 1.5; "0"
//     disables) — the publish-overhead regression gate.
//
// Knobs: OSDP_BENCH_MAX_ROWS caps the ingested-row grid (default 1M; the CI
// smoke run uses 50000), OSDP_BENCH_THREADS the mixed-phase pool size
// (default 2), OSDP_BENCH_JSON the output path (default BENCH_ingest.json),
// OSDP_BENCH_MAX_PUBLISH_OVERHEAD the regression gate above.
// The JSON records hardware_concurrency so flat concurrency numbers on a
// starved machine read as what they are.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/engine.h"
#include "src/data/predicate.h"
#include "src/data/table_builder.h"
#include "src/eval/table_printer.h"
#include "src/policy/policy.h"
#include "src/runtime/query_service.h"
#include "src/runtime/thread_pool.h"
#include "tests/serial_replay.h"

using namespace osdp;
using bench::NowSec;

namespace {

constexpr size_t kSeedRows = 10000;
constexpr uint64_t kSeedSeed = 0x05D9;
constexpr uint64_t kRootSeed = 0x16E5;

OsdpEngine BenchEngine() {
  OsdpEngine::Options eopts;
  eopts.total_epsilon = 1e9;  // throughput bench, not a budget bench
  return *OsdpEngine::Create(CensusRows(kSeedRows, kSeedSeed), CensusPolicy(),
                             eopts);
}

int Fail(const char* what) {
  std::fprintf(stderr, "BIT-IDENTITY VIOLATION: %s\n", what);
  return 1;
}

struct Measurement {
  std::string op;
  size_t batch_rows = 0;
  size_t total_rows = 0;   // rows ingested during the measurement
  size_t generations = 0;  // snapshots published
  size_t queries = 0;      // mixed phase only
  double sec = 0.0;
  double rows_per_sec = 0.0;
  double queries_per_sec = 0.0;
  double publish_overhead = 0.0;  // ingest_sec / append_sec (ingest rows)
  bench::LatencyStats query_lat;  // mixed phase: per-query server durations
};

// Rebuilds the dataset as of `generation` from the deterministic batch
// stream and checks `snapshot` against a from-scratch classification.
bool SnapshotMatchesRebuild(const Snapshot& snapshot, size_t batch_rows,
                            uint64_t batch_seed_base) {
  Table rebuilt = CensusRows(kSeedRows, kSeedSeed);
  for (uint64_t g = 1; g <= snapshot.generation; ++g) {
    if (!rebuilt.AppendRows(CensusRows(batch_rows, batch_seed_base + g)).ok()) {
      return false;
    }
  }
  return rebuilt.num_rows() == snapshot.table.num_rows() &&
         CensusPolicy().NonSensitiveRowMask(rebuilt) == snapshot.non_sensitive;
}

}  // namespace

int main() {
  const size_t max_rows = bench::EnvSize("OSDP_BENCH_MAX_ROWS", 1000000);
  const size_t mixed_threads = bench::EnvSize("OSDP_BENCH_THREADS", 2);

  const double max_publish_overhead =
      bench::EnvGate("OSDP_BENCH_MAX_PUBLISH_OVERHEAD", 1.5);

  std::vector<Measurement> results;
  const Policy policy = CensusPolicy();

  std::printf("=== streaming ingest: rows/sec through the snapshot path ===\n");
  std::printf("(hardware_concurrency=%u; ingested rows capped at %zu)\n\n",
              std::thread::hardware_concurrency(), max_rows);

  // --- append / ingest, by batch size ----------------------------------
  TextTable text({"batch rows", "total rows", "append rows/s",
                  "ingest rows/s", "publish overhead"});
  bool overhead_checked = false;
  for (size_t batch_rows : {size_t{1000}, size_t{10000}, size_t{100000}}) {
    // Cap the generation count so the grid finishes quickly at small batch
    // sizes.
    const size_t total =
        std::min(max_rows, batch_rows * size_t{100});
    if (batch_rows > total) continue;
    const size_t batches = total / batch_rows;
    if (batches == 0) continue;

    // Pre-generate the batches: measure the ingest path, not the generator.
    std::vector<Table> batch_tables;
    batch_tables.reserve(batches);
    for (size_t g = 1; g <= batches; ++g) {
      batch_tables.push_back(CensusRows(batch_rows, 0xB000 + g));
    }

    // append: builder only, no snapshot cut.
    TableBuilder builder =
        *TableBuilder::Create(CensusRows(kSeedRows, kSeedSeed), policy);
    const double t0 = NowSec();
    for (const Table& batch : batch_tables) {
      if (!builder.Append(batch).ok()) return Fail("append status");
    }
    const double append_sec = NowSec() - t0;
    if (!SnapshotMatchesRebuild(*builder.BuildSnapshot(batches), batch_rows,
                                0xB000)) {
      return Fail("append-only incremental mask vs rebuild");
    }
    results.push_back({"append", batch_rows, batches * batch_rows, 0, 0,
                       append_sec,
                       static_cast<double>(batches * batch_rows) / append_sec,
                       0.0, 0.0, {}});

    // ingest: full QueryService path, one published snapshot per batch.
    auto service = *QueryService::Create(BenchEngine(), {});
    const double t1 = NowSec();
    for (const Table& batch : batch_tables) {
      if (!service->Ingest(batch).ok()) return Fail("ingest status");
    }
    const double ingest_sec = NowSec() - t1;
    if (service->current_generation() != batches) return Fail("generation");
    if (!SnapshotMatchesRebuild(*service->current_snapshot(), batch_rows,
                                0xB000)) {
      return Fail("published snapshot vs rebuild");
    }
    const double overhead = ingest_sec / append_sec;
    results.push_back({"ingest", batch_rows, batches * batch_rows, batches, 0,
                       ingest_sec,
                       static_cast<double>(batches * batch_rows) / ingest_sec,
                       0.0, overhead, {}});

    text.AddRow({std::to_string(batch_rows), std::to_string(total),
                 TextTable::FmtAuto(static_cast<double>(total) / append_sec),
                 TextTable::FmtAuto(static_cast<double>(total) / ingest_sec),
                 TextTable::Fmt(overhead, 1) + "x"});

    // The regression gate runs at the smallest (most publish-heavy) batch
    // size: before chunked columns this row sat at ~8x; a publish that copies
    // no cell keeps it near 1x.
    if (!overhead_checked && max_publish_overhead > 0.0 &&
        overhead > max_publish_overhead) {
      std::fprintf(stderr,
                   "PUBLISH-OVERHEAD REGRESSION: %.2fx at %zu-row batches "
                   "(limit %.2fx) — snapshot publish no longer keeps pace "
                   "with append\n",
                   overhead, batch_rows, max_publish_overhead);
      return 1;
    }
    overhead_checked = true;
  }
  std::printf("%s\n", text.ToString().c_str());

  // --- mixed: writer vs analyst sessions --------------------------------
  {
    constexpr size_t kMixedBatchRows = 5000;
    const size_t batches =
        std::max<size_t>(1, std::min(max_rows, size_t{100000}) /
                                kMixedBatchRows);
    constexpr int kSessions = 2;
    constexpr double kEps = 1e-4;

    ThreadPool pool(mixed_threads);
    QueryService::Options sopts;
    sopts.pool = &pool;
    sopts.per_session_epsilon = 1e8;
    sopts.seed = kRootSeed;
    auto service = *QueryService::Create(BenchEngine(), sopts);
    std::vector<QueryService::SessionId> sessions;
    for (int s = 0; s < kSessions; ++s) {
      sessions.push_back(service->OpenSession("s" + std::to_string(s)));
    }

    std::vector<Table> batch_tables;
    batch_tables.reserve(batches);
    for (size_t g = 1; g <= batches; ++g) {
      batch_tables.push_back(CensusRows(kMixedBatchRows, 0xC000 + g));
    }

    const auto count_query = [&](int s, size_t q) {
      const int bound = 10 + (7 * s + 13 * static_cast<int>(q)) % 80;
      return CountRequest{Predicate::Le("age", Value(bound)), kEps};
    };
    std::vector<std::vector<ServiceAnswer>> recorded(kSessions);
    std::vector<std::vector<double>> latencies_us(kSessions);
    std::atomic<bool> done{false};

    const double t0 = NowSec();
    std::thread writer([&] {
      for (const Table& batch : batch_tables) {
        if (!service->Ingest(batch).ok()) std::abort();
      }
      done.store(true);
    });
    std::vector<std::thread> readers;
    for (int s = 0; s < kSessions; ++s) {
      readers.emplace_back([&, s] {
        int q = 0;
        while (!done.load() || q == 0) {  // at least one query each
          const CountRequest request = count_query(s, q);
          auto answer =
              service->AnswerCount(sessions[s], request.where, request.epsilon);
          if (!answer.ok()) std::abort();
          latencies_us[s].push_back(answer->server_duration_micros);
          recorded[s].push_back(std::move(answer).ValueOrDie());
          ++q;
        }
      });
    }
    writer.join();
    for (std::thread& t : readers) t.join();
    const double mixed_sec = NowSec() - t0;

    if (!SnapshotMatchesRebuild(*service->current_snapshot(), kMixedBatchRows,
                                0xC000)) {
      return Fail("mixed-phase snapshot vs rebuild");
    }

    // Serial replay of every recorded (generation, session, seq) answer.
    std::vector<Table> generations;
    generations.push_back(CensusRows(kSeedRows, kSeedSeed));
    for (size_t g = 1; g <= batches; ++g) {
      Table next = generations.back();
      if (!next.AppendRows(batch_tables[g - 1]).ok()) {
        return Fail("replay rebuild");
      }
      generations.push_back(std::move(next));
    }
    std::vector<RowMask> ns_masks;
    ns_masks.reserve(generations.size());
    for (const Table& t : generations) {
      ns_masks.push_back(policy.NonSensitiveRowMask(t));
    }
    size_t queries = 0;
    for (int s = 0; s < kSessions; ++s) {
      for (size_t q = 0; q < recorded[s].size(); ++q) {
        const ServiceAnswer& rec = recorded[s][q];
        const Result<ServiceAnswer> expected = ReplayAnswer(
            generations[rec.generation], ns_masks[rec.generation],
            count_query(s, q), kRootSeed, sessions[s], q, rec.generation);
        if (!expected.ok() || !SameRelease(rec, *expected)) {
          return Fail("mixed-phase serial replay");
        }
        ++queries;
      }
    }

    std::vector<double> all_latencies;
    for (const auto& per_session : latencies_us) {
      all_latencies.insert(all_latencies.end(), per_session.begin(),
                           per_session.end());
    }
    const bench::LatencyStats lat = bench::SummarizeLatencies(all_latencies);

    const size_t ingested = batches * kMixedBatchRows;
    results.push_back({"mixed", kMixedBatchRows, ingested, batches, queries,
                       mixed_sec, static_cast<double>(ingested) / mixed_sec,
                       static_cast<double>(queries) / mixed_sec, 0.0, lat});
    std::printf(
        "mixed (%zu pool threads): %zu rows over %zu generations + %zu "
        "queries from %d sessions in %.3gs (%.3g rows/s, %.3g q/s); all "
        "answers bit-identical to serial replay\n"
        "mixed query latency: p50 %.1f us, p95 %.1f us, p99 %.1f us, "
        "max %.1f us\n\n",
        mixed_threads, ingested, batches, queries, kSessions, mixed_sec,
        static_cast<double>(ingested) / mixed_sec,
        static_cast<double>(queries) / mixed_sec, lat.p50, lat.p95, lat.p99,
        lat.max);
  }

  bench::BenchJson json("ingest", "BENCH_ingest.json");
  if (!json.ok()) return 1;
  json.Records("results", results, [](FILE* f, const Measurement& m) {
    std::fprintf(
        f,
        "{\"op\": \"%s\", \"batch_rows\": %zu, \"total_rows\": %zu, "
        "\"generations\": %zu, \"queries\": %zu, \"sec\": %.6g, "
        "\"rows_per_sec\": %.6g, \"queries_per_sec\": %.6g, "
        "\"publish_overhead\": %.6g, \"query_p50_us\": %.3f, "
        "\"query_p95_us\": %.3f, \"query_p99_us\": %.3f, "
        "\"query_max_us\": %.3f}",
        m.op.c_str(), m.batch_rows, m.total_rows, m.generations, m.queries,
        m.sec, m.rows_per_sec, m.queries_per_sec, m.publish_overhead,
        m.query_lat.p50, m.query_lat.p95, m.query_lat.p99, m.query_lat.max);
  });
  if (!json.Close()) return 1;
  std::printf("wrote %s (%zu measurements)\n", json.path().c_str(),
              results.size());
  return 0;
}
