// Observability overhead gate: twin QueryServices over the same table — one
// with the full metrics/tracing surface enabled (the default), one created
// with Options::metrics_enabled=false so every telemetry site collapses to a
// single relaxed load — answer identical warmed-cache batches, and the
// enabled twin must stay within OSDP_BENCH_MAX_OBS_OVERHEAD (default 0.02 =
// 2%; "0" disables the gate) of the disabled twin's best batch time.
//
// Cross-checks (any failure exits non-zero; the bench_obs_overhead_smoke
// ctest relies on this):
//   * BIT-IDENTITY: every answer from the enabled twin — status, count,
//     histogram bins, generation, seq, cache_hit — must equal the disabled
//     twin's. Only server_duration_micros (metadata, not an answer bit) may
//     differ. Observability must never influence answers.
//   * OVERHEAD GATE: the enabled/disabled batch-time ratio, minus one, must
//     stay <= the configured limit. Each repetition times both twins back
//     to back (order alternating), so slow-varying host noise — frequency
//     scaling, a neighbor VM stealing the core — lands on both halves of a
//     pair and cancels in the ratio; the median of a round's pairs then
//     shrugs off the pairs a noise burst split. (A best-of-N ratio of
//     independent runs swings by ±15% on a busy single-core host; the
//     paired median is what makes a 2% gate enforceable.) One pair of twins
//     still carries an offset of its own, the same in all its pairs: on a
//     shared 4-vCPU host, single rounds on one tree read from -0.5% to
//     +4.3%. So the gate reads the median over kRounds rounds, each on
//     freshly built twins.
//   * COVERAGE: DumpMetricsJson() from the enabled twin names every
//     subsystem — service.*, cache.*, pool.*, ingest.*, budget.*, fault.* —
//     and the trace ring holds traces. The disabled twin's ring stays empty
//     and its stage histograms stay at count 0.
//
// Knobs: OSDP_BENCH_MAX_ROWS (table size, default 100000), OSDP_BENCH_REPS
// (timing pairs per round, default 41), OSDP_BENCH_MAX_OBS_OVERHEAD (the
// gate), OSDP_BENCH_JSON (artifact path, default BENCH_obs_overhead.json).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/benchdata/table_gen.h"
#include "src/common/fault.h"
#include "src/core/engine.h"
#include "src/data/predicate.h"
#include "src/eval/table_printer.h"
#include "src/hist/histogram_query.h"
#include "src/policy/policy.h"
#include "src/runtime/query_service.h"
#include "src/runtime/thread_pool.h"
#include "tests/serial_replay.h"

using namespace osdp;

namespace {

// Same shape as bench_query_cache's pool: every request carries a WHERE scan
// so the cache, scan, mechanism, and budget stages all run.
std::vector<ServiceRequest> RequestPool(const Domain1D& age_domain) {
  const Predicate a = Predicate::Le("age", Value(40));
  const Predicate b = Predicate::Eq("opt_in", Value(1));
  std::vector<ServiceRequest> pool;
  pool.emplace_back(CountRequest{Predicate::And(a, b), 1e-4});
  pool.emplace_back(CountRequest{Predicate::Le("age", Value(30)), 1e-4});
  pool.emplace_back(CountRequest{Predicate::Ge("zip", Value(5000)), 1e-4});
  pool.emplace_back(CountRequest{
      Predicate::Or(Predicate::Lt("age", Value(25)),
                    Predicate::Gt("age", Value(60))),
      1e-4});
  pool.emplace_back(HistogramRequest{HistogramQuery{"age", age_domain, b},
                                     1e-4, EngineMechanism::kOsdpLaplaceL1});
  pool.emplace_back(HistogramRequest{HistogramQuery{"age", age_domain, a},
                                     1e-4, EngineMechanism::kOsdpLaplaceL1});
  return pool;
}

std::unique_ptr<QueryService> MakeService(const Table& table, ThreadPool* pool,
                                          bool metrics_enabled) {
  OsdpEngine::Options eopts;
  eopts.total_epsilon = 1e9;
  QueryService::Options sopts;
  sopts.per_session_epsilon = 1e8;
  sopts.pool = pool;
  sopts.num_shards = 1;
  sopts.mask_cache_bytes = 64ull << 20;
  sopts.metrics_enabled = metrics_enabled;
  return *QueryService::Create(
      *OsdpEngine::Create(table, CensusPolicy(), eopts), sopts);
}

// Rounds of freshly built twins the gate takes its median over.
constexpr int kRounds = 5;

// Twin services over the same table, one with telemetry on. Separate pools:
// enabling metrics on a pool is one-way, so sharing one would silently
// instrument the disabled twin's chunks.
struct Twins {
  ThreadPool pool_on{0};
  ThreadPool pool_off{0};
  std::unique_ptr<QueryService> on;
  std::unique_ptr<QueryService> off;
  QueryService::SessionId session_on = 0;
  QueryService::SessionId session_off = 0;
};

// Fills `twins`, gives each the same ingest (so ingest.* metrics are live
// and both answer against the same generation), and answers `batch` once on
// each. That warm pass doubles as the bit-identity check: identical session
// ids and seq streams, so the answers must match bit for bit. Returns what
// diverged, or "" when nothing did.
std::string WarmTwins(const Table& table, const Table& ingest_batch,
                      const std::vector<ServiceRequest>& batch,
                      Twins* twins) {
  twins->on = MakeService(table, &twins->pool_on, true);
  twins->off = MakeService(table, &twins->pool_off, false);
  if (!twins->on->Ingest(ingest_batch).ok() ||
      !twins->off->Ingest(ingest_batch).ok()) {
    return "seed ingest failed";
  }
  twins->session_on = twins->on->OpenSession("twin");
  twins->session_off = twins->off->OpenSession("twin");
  const auto answers_on = twins->on->AnswerBatch(twins->session_on, batch);
  const auto answers_off = twins->off->AnswerBatch(twins->session_off, batch);
  for (size_t q = 0; q < batch.size(); ++q) {
    if (!answers_on[q].ok() || !answers_off[q].ok()) {
      return "warm query " + std::to_string(q) + " not delivered";
    }
    const ServiceAnswer& a = *answers_on[q];
    const ServiceAnswer& b = *answers_off[q];
    const bool hist_match =
        a.histogram.has_value() == b.histogram.has_value() &&
        (!a.histogram.has_value() ||
         a.histogram->counts() == b.histogram->counts());
    if (a.count != b.count || !hist_match || a.generation != b.generation ||
        a.seq != b.seq || a.cache_hit != b.cache_hit) {
      return "metrics-on answer diverges at query " + std::to_string(q);
    }
  }
  return "";
}

int Fail(const char* what, const std::string& detail) {
  std::fprintf(stderr, "OBS OVERHEAD BENCH FAILED: %s: %s\n", what,
               detail.c_str());
  return 1;
}

bool Covers(const std::string& json, const char* key) {
  return json.find(key) != std::string::npos;
}

}  // namespace

int main() {
  const size_t rows = bench::EnvSize("OSDP_BENCH_MAX_ROWS", 100000);
  const int reps = bench::Reps(41);
  const double max_overhead = bench::EnvGate("OSDP_BENCH_MAX_OBS_OVERHEAD", 0.02);

  std::printf("=== observability overhead: metrics on vs off twins ===\n");
  std::printf(
      "(hardware_concurrency=%u; rows=%zu, %d rounds x %d pairs, "
      "gate=%.1f%%)\n\n",
      std::thread::hardware_concurrency(), rows, kRounds, reps,
      100.0 * max_overhead);

  CensusTableOptions topts;
  topts.num_rows = rows;
  topts.seed = 0x0B5;
  const Table table = MakeCensusTable(topts);
  CensusTableOptions iopts;
  iopts.num_rows = 500;
  iopts.seed = 0x0B6;
  const Table ingest_batch = MakeCensusTable(iopts);

  const Domain1D age_domain = *Domain1D::Numeric(0, 100, 64);
  const std::vector<ServiceRequest> request_pool = RequestPool(age_domain);
  std::vector<ServiceRequest> batch;
  constexpr size_t kRepeat = 16;
  batch.reserve(request_pool.size() * kRepeat);
  for (size_t r = 0; r < kRepeat; ++r) {
    for (const ServiceRequest& req : request_pool) batch.push_back(req);
  }

  // Paired timing: each rep times both twins back to back, order
  // alternating; a round reads the median of its per-pair ratios, and the
  // gate the median of the rounds.
  volatile size_t sink = 0;
  const auto run_batch = [&](QueryService& service,
                             QueryService::SessionId session) {
    for (const auto& r : service.AnswerBatch(session, batch)) {
      sink += r.ok() ? 1 : 0;
    }
  };
  const auto time_batch = [&](QueryService& service,
                              QueryService::SessionId session) {
    const double t0 = bench::NowSec();
    run_batch(service, session);
    return bench::NowSec() - t0;
  };
  std::unique_ptr<Twins> twins;
  std::vector<double> round_overheads;
  double best_on = 1e300, best_off = 1e300;
  for (int round = 0; round < kRounds; ++round) {
    twins.reset();  // one pair of twins alive at a time
    twins = std::make_unique<Twins>();
    if (const std::string diverged =
            WarmTwins(table, ingest_batch, batch, twins.get());
        !diverged.empty()) {
      return Fail("bit-identity", diverged);
    }
    QueryService& on = *twins->on;
    QueryService& off = *twins->off;
    run_batch(on, twins->session_on);  // warmup beyond the check pass
    run_batch(off, twins->session_off);
    std::vector<double> ratios;
    ratios.reserve(static_cast<size_t>(reps));
    for (int i = 0; i < reps; ++i) {
      double sec_on, sec_off;
      if (i % 2 == 0) {
        sec_off = time_batch(off, twins->session_off);
        sec_on = time_batch(on, twins->session_on);
      } else {
        sec_on = time_batch(on, twins->session_on);
        sec_off = time_batch(off, twins->session_off);
      }
      best_on = std::min(best_on, sec_on);
      best_off = std::min(best_off, sec_off);
      ratios.push_back(sec_on / sec_off);
    }
    round_overheads.push_back(bench::Median(ratios) - 1.0);
  }
  const double overhead = bench::Median(round_overheads);
  const double qps_on = static_cast<double>(batch.size()) / best_on;
  const double qps_off = static_cast<double>(batch.size()) / best_off;
  QueryService& on = *twins->on;
  QueryService& off = *twins->off;
  const QueryService::SessionId session_on = twins->session_on;
  const QueryService::SessionId session_off = twins->session_off;

  // Per-query latency percentiles, one steady-state pass each.
  std::vector<double> lat_on, lat_off;
  for (const auto& r : on.AnswerBatch(session_on, batch)) {
    if (r.ok()) lat_on.push_back(r->server_duration_micros);
  }
  for (const auto& r : off.AnswerBatch(session_off, batch)) {
    if (r.ok()) lat_off.push_back(r->server_duration_micros);
  }
  const bench::LatencyStats stats_on = bench::SummarizeLatencies(lat_on);
  const bench::LatencyStats stats_off = bench::SummarizeLatencies(lat_off);

  TextTable text({"twin", "hot q/s", "p50 us", "p99 us", "traces"});
  text.AddRow({"metrics on", TextTable::FmtAuto(qps_on),
               TextTable::Fmt(stats_on.p50, 1), TextTable::Fmt(stats_on.p99, 1),
               std::to_string(on.trace_ring().pushed())});
  text.AddRow({"metrics off", TextTable::FmtAuto(qps_off),
               TextTable::Fmt(stats_off.p50, 1),
               TextTable::Fmt(stats_off.p99, 1),
               std::to_string(off.trace_ring().pushed())});
  std::printf("%s\n", text.ToString().c_str());
  std::string rounds_text;
  std::string rounds_json;
  for (const double r : round_overheads) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %+.2f%%", 100.0 * r);
    rounds_text += buf;
    std::snprintf(buf, sizeof(buf), "%s%.6f", rounds_json.empty() ? "" : ", ",
                  r);
    rounds_json += buf;
  }
  std::printf(
      "enabled overhead: %+.2f%%, the median of rounds%s (gate %.1f%%)\n\n",
      100.0 * overhead, rounds_text.c_str(), 100.0 * max_overhead);

  // ---- Coverage: the scrape surface names every subsystem. Arm a fault
  // point on a schedule that can never fire so fault.* has a row (after the
  // timing runs — an armed registry serializes hits on a mutex).
  FaultRegistry::Global().Arm("query/execute", {1ull << 60, 0, 1});
  run_batch(on, session_on);
  const std::string json = on.DumpMetricsJson();
  FaultRegistry::Global().DisarmAll();
  for (const char* key :
       {"service.queries_delivered", "service.query_ns", "cache.hits",
        "pool.tasks_submitted", "pool.utilization", "ingest.batches",
        "budget.service_spent_eps", "budget.session.",
        "fault.query/execute.hits"}) {
    if (!Covers(json, key)) return Fail("coverage", std::string(key) +
                                                        " missing from "
                                                        "DumpMetricsJson");
  }
  if (on.trace_ring().pushed() == 0) {
    return Fail("coverage", "enabled twin pushed no traces");
  }
  if (off.trace_ring().pushed() != 0) {
    return Fail("coverage", "disabled twin pushed traces");
  }
  const obs::MetricsSnapshot off_snap = off.MetricsSnapshot();
  const obs::MetricsSnapshot::HistogramValue* off_query_ns =
      off_snap.FindHistogram("service.query_ns");
  if (off_query_ns == nullptr || off_query_ns->count != 0) {
    return Fail("coverage", "disabled twin recorded stage latencies");
  }

  bench::BenchJson out("obs_overhead", "BENCH_obs_overhead.json");
  if (!out.ok()) return 1;
  std::fprintf(
      out.file(),
      "  \"rows\": %zu,\n  \"batch_queries\": %zu,\n  \"rounds\": %d,\n"
      "  \"reps\": %d,\n  \"overhead\": %.6f,\n"
      "  \"round_overheads\": [%s],\n  \"gate\": %.6f,\n"
      "  \"hot_qps_on\": %.6g,\n  \"hot_qps_off\": %.6g,\n"
      "  \"on\": {\"p50_us\": %.3f, \"p95_us\": %.3f, \"p99_us\": %.3f, "
      "\"max_us\": %.3f},\n"
      "  \"off\": {\"p50_us\": %.3f, \"p95_us\": %.3f, \"p99_us\": %.3f, "
      "\"max_us\": %.3f}\n",
      rows, batch.size(), kRounds, reps, overhead, rounds_json.c_str(),
      max_overhead, qps_on, qps_off,
      stats_on.p50, stats_on.p95, stats_on.p99, stats_on.max, stats_off.p50,
      stats_off.p95, stats_off.p99, stats_off.max);
  if (!out.Close()) return 1;
  std::printf("wrote %s\n", out.path().c_str());

  if (max_overhead > 0.0 && overhead > max_overhead) {
    std::fprintf(stderr,
                 "OBS OVERHEAD REGRESSION: %.2f%% > %.1f%% gate — the "
                 "telemetry hot path grew\n",
                 100.0 * overhead, 100.0 * max_overhead);
    return 1;
  }
  return 0;
}
