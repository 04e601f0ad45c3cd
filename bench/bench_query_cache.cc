// Benchmark for the QueryService mask cache (src/runtime/mask_cache.h):
// repeated-query batch throughput with the cache enabled (hot) vs disabled
// (cold), swept over table size × batch repeat factor.
//
// Each batch draws from a fixed pool of 9 distinct requests (6 predicate
// counts, 2 filtered histograms and 1 unfiltered histogram, which looks up
// the TRUE clause's entry) repeated `repeat` times, so
// the steady-state hit rate is (repeat-1)/repeat of lookups plus everything
// the warm cache already holds — the sweep shows the cache's value grow
// from 0% hits (repeat 1, first pass) to >90% (repeat 16).
//
// Cross-checks (exit non-zero on any failure; the bench_query_cache_smoke
// ctest target runs them on every test run):
//   * every hot answer must be bit-identical to the cold service's answer
//     for the same (session, seq) — the cache must be observationally
//     invisible;
//   * at repeat >= 16 the measured first-pass hit rate must be >= 90%
//     (94.4% deterministically: 8 misses in 144 lookups — the 9 requests
//     span only 8 canonical fingerprints, the commuted pair shares one) —
//     the acceptance floor of the caching subsystem.
//
// Knobs: OSDP_BENCH_MAX_ROWS caps the row grid (default 1M; the CI smoke
// run uses 50000), OSDP_BENCH_JSON the output path (default
// BENCH_query_cache.json). The JSON records hardware_concurrency per bench
// conventions — the cache win is per-core (it removes scans, not thread
// time), so honest 1-core numbers still show it, unlike the scaling benches.

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/benchdata/table_gen.h"
#include "src/core/engine.h"
#include "src/data/predicate.h"
#include "src/eval/table_printer.h"
#include "src/hist/histogram_query.h"
#include "src/policy/policy.h"
#include "src/runtime/mask_cache.h"
#include "src/runtime/query_service.h"
#include "src/runtime/thread_pool.h"
#include "tests/serial_replay.h"

using namespace osdp;

namespace {

int RepsFor(size_t rows) {
  if (rows >= 1000000) return 3;
  return 7;
}

// 9 distinct requests, every one looking up a cache entry (so every query
// exercises the cache): 6 counts, 2 filtered histograms and 1 unfiltered
// histogram on the TRUE clause's entry. Index 1 is a commuted spelling of
// index 0 — one shared cache entry.
std::vector<ServiceRequest> RequestPool(const Domain1D& age_domain) {
  const Predicate a = Predicate::Le("age", Value(40));
  const Predicate b = Predicate::Eq("opt_in", Value(1));
  std::vector<ServiceRequest> pool;
  pool.emplace_back(CountRequest{Predicate::And(a, b), 1e-4});
  pool.emplace_back(CountRequest{Predicate::And(b, a), 1e-4});
  pool.emplace_back(CountRequest{Predicate::Le("age", Value(30)), 1e-4});
  pool.emplace_back(CountRequest{
      Predicate::And(Predicate::Gt("income", Value(30000.0)),
                     Predicate::In("race", {Value("C1"), Value("C2")})),
      1e-4});
  pool.emplace_back(CountRequest{Predicate::Ge("zip", Value(5000)), 1e-4});
  pool.emplace_back(CountRequest{
      Predicate::Or(Predicate::Lt("age", Value(25)),
                    Predicate::Gt("age", Value(60))),
      1e-4});
  pool.emplace_back(HistogramRequest{
      HistogramQuery{"age", age_domain, b}, 1e-4,
      EngineMechanism::kOsdpLaplaceL1});
  pool.emplace_back(HistogramRequest{
      HistogramQuery{"age", age_domain, a}, 1e-4,
      EngineMechanism::kOsdpLaplaceL1});
  pool.emplace_back(HistogramRequest{
      HistogramQuery{"age", age_domain, std::nullopt}, 1e-4,
      EngineMechanism::kOsdpLaplaceL1});
  return pool;
}

std::unique_ptr<QueryService> MakeService(const Table& table,
                                          ThreadPool* pool,
                                          size_t cache_bytes) {
  OsdpEngine::Options eopts;
  eopts.total_epsilon = 1e9;  // throughput bench, not a budget bench
  QueryService::Options sopts;
  sopts.per_session_epsilon = 1e8;
  sopts.pool = pool;
  sopts.num_shards = 1;
  sopts.mask_cache_bytes = cache_bytes;
  return *QueryService::Create(
      *OsdpEngine::Create(table, CensusPolicy(), eopts), sopts);
}

struct Measurement {
  size_t rows;
  size_t repeat;
  size_t queries;
  double hit_rate;
  uint64_t hits, misses, evictions;
  size_t cache_bytes;
  double cold_qps;
  double hot_qps;
  // Per-query latency percentiles (µs) over one steady-state hot batch,
  // from ServiceAnswer.server_duration_micros — the same field the future
  // load harness will aggregate.
  bench::LatencyStats hot_lat;
};

int Fail(const char* what, size_t rows, size_t repeat, size_t q) {
  std::fprintf(stderr,
               "BIT-IDENTITY VIOLATION: %s (rows=%zu repeat=%zu query=%zu)\n",
               what, rows, repeat, q);
  return 1;
}

}  // namespace

int main() {
  const size_t max_rows = bench::EnvSize("OSDP_BENCH_MAX_ROWS", 1000000);

  std::vector<size_t> row_grid;
  for (size_t rows : {size_t{100000}, size_t{1000000}}) {
    if (rows <= max_rows) row_grid.push_back(rows);
  }
  if (row_grid.empty()) row_grid.push_back(max_rows);
  const size_t repeat_grid[] = {1, 4, 16};

  const Domain1D age_domain = *Domain1D::Numeric(0, 100, 64);
  const std::vector<ServiceRequest> pool = RequestPool(age_domain);
  ThreadPool inline_pool(0);  // per-core numbers: the cache removes scans,
                              // not thread time
  std::vector<Measurement> results;
  volatile size_t sink = 0;

  std::printf("=== mask cache: repeated-query batches, hot vs cold ===\n");
  std::printf("(hardware_concurrency=%u; row grid capped at %zu)\n\n",
              std::thread::hardware_concurrency(), max_rows);

  for (size_t rows : row_grid) {
    CensusTableOptions topts;
    topts.num_rows = rows;
    topts.seed = 0x05D9 + rows;
    const Table table = MakeCensusTable(topts);
    const int reps = RepsFor(rows);

    TextTable text({"repeat", "queries", "hit rate", "cold q/s", "hot q/s",
                    "speedup", "hot p50 us", "hot p99 us"});
    for (size_t repeat : repeat_grid) {
      std::vector<ServiceRequest> batch;
      batch.reserve(pool.size() * repeat);
      for (size_t r = 0; r < repeat; ++r) {
        for (const ServiceRequest& req : pool) batch.push_back(req);
      }

      // Divergence check on fresh twins (fresh = identical session ids and
      // per-session seq streams): the hot service's answers must be
      // bit-identical to the cold service's. The hot first pass also yields
      // the deterministic first-pass hit rate.
      auto cold = MakeService(table, &inline_pool, 0);
      auto hot = MakeService(table, &inline_pool, 64ull << 20);
      const auto cold_session = cold->OpenSession("check");
      const auto hot_session = hot->OpenSession("check");
      const auto cold_answers = cold->AnswerBatch(cold_session, batch);
      const auto hot_answers = hot->AnswerBatch(hot_session, batch);
      for (size_t q = 0; q < batch.size(); ++q) {
        if (cold_answers[q].ok() != hot_answers[q].ok()) {
          return Fail("status", rows, repeat, q);
        }
        if (!cold_answers[q].ok()) continue;
        if (cold_answers[q]->count != hot_answers[q]->count) {
          return Fail("count", rows, repeat, q);
        }
        const auto& ch = cold_answers[q]->histogram;
        const auto& hh = hot_answers[q]->histogram;
        if (ch.has_value() != hh.has_value() ||
            (ch.has_value() && ch->counts() != hh->counts())) {
          return Fail("histogram", rows, repeat, q);
        }
      }
      const MaskCache::Stats first_pass = hot->cache_stats();
      const double hit_rate =
          first_pass.hits + first_pass.misses == 0
              ? 0.0
              : static_cast<double>(first_pass.hits) /
                    static_cast<double>(first_pass.hits + first_pass.misses);
      if (repeat >= 16 && hit_rate < 0.90) {
        std::fprintf(stderr,
                     "HIT-RATE FLOOR VIOLATION: %.1f%% < 90%% "
                     "(rows=%zu repeat=%zu)\n",
                     100.0 * hit_rate, rows, repeat);
        return 1;
      }

      // Throughput: steady state on each service (the hot cache is warm —
      // the miss cost is in the first pass above; reps take the best).
      const double cold_sec = bench::TimeBest(reps, [&] {
        for (const auto& r : cold->AnswerBatch(cold_session, batch)) {
          sink += r.ok() ? 1 : 0;
        }
      });
      const double hot_sec = bench::TimeBest(reps, [&] {
        for (const auto& r : hot->AnswerBatch(hot_session, batch)) {
          sink += r.ok() ? 1 : 0;
        }
      });
      const double cold_qps = static_cast<double>(batch.size()) / cold_sec;
      const double hot_qps = static_cast<double>(batch.size()) / hot_sec;

      // Latency percentiles from one steady-state hot pass: every answer
      // carries its own server-side duration, so no external clocks needed.
      std::vector<double> lat_us;
      lat_us.reserve(batch.size());
      for (const auto& r : hot->AnswerBatch(hot_session, batch)) {
        if (r.ok()) lat_us.push_back(r->server_duration_micros);
      }
      const bench::LatencyStats hot_lat = bench::SummarizeLatencies(lat_us);

      const MaskCache::Stats stats = hot->cache_stats();
      results.push_back({rows, repeat, batch.size(), hit_rate, stats.hits,
                         stats.misses, stats.evictions, stats.bytes, cold_qps,
                         hot_qps, hot_lat});
      text.AddRow({std::to_string(repeat), std::to_string(batch.size()),
                   TextTable::Fmt(100.0 * hit_rate, 1) + "%",
                   TextTable::FmtAuto(cold_qps), TextTable::FmtAuto(hot_qps),
                   TextTable::Fmt(hot_qps / cold_qps, 2) + "x",
                   TextTable::Fmt(hot_lat.p50, 1),
                   TextTable::Fmt(hot_lat.p99, 1)});
    }
    std::printf("--- %zu rows ---\n%s\n", rows, text.ToString().c_str());
  }

  bench::BenchJson json("query_cache", "BENCH_query_cache.json");
  if (!json.ok()) return 1;
  json.Records("results", results, [](FILE* f, const Measurement& m) {
    std::fprintf(
        f,
        "{\"rows\": %zu, \"repeat\": %zu, \"queries\": %zu, "
        "\"hit_rate\": %.4f, \"hits\": %llu, \"misses\": %llu, "
        "\"evictions\": %llu, \"cache_bytes\": %zu, "
        "\"cold_qps\": %.6g, \"hot_qps\": %.6g, \"speedup\": %.3f, "
        "\"hot_p50_us\": %.3f, \"hot_p95_us\": %.3f, \"hot_p99_us\": %.3f, "
        "\"hot_max_us\": %.3f}",
        m.rows, m.repeat, m.queries, m.hit_rate,
        static_cast<unsigned long long>(m.hits),
        static_cast<unsigned long long>(m.misses),
        static_cast<unsigned long long>(m.evictions), m.cache_bytes,
        m.cold_qps, m.hot_qps, m.hot_qps / m.cold_qps, m.hot_lat.p50,
        m.hot_lat.p95, m.hot_lat.p99, m.hot_lat.max);
  });
  if (!json.Close()) return 1;
  std::printf("wrote %s (%zu measurements); sink=%zu\n", json.path().c_str(),
              results.size(), static_cast<size_t>(sink));
  return 0;
}
