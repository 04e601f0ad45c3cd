// Fault-injection soak for the QueryService robustness layer
// (docs/robustness.md): every fault point in the catalog, round-robin —
// plus a fault-free baseline round — armed with repeating schedules while
// analyst threads hammer mixed batches (some carrying already-passed
// deadlines), a canceller fires a batch token mid-round, a writer ingests
// through both failure windows, and admission control sheds under the
// thread pressure.
//
// This is a *soak*, not a throughput bench: the numbers it prints (queries
// delivered / failed by class, injected fires, q/s) are diagnostics. What it
// certifies — exiting non-zero on any violation; the bench_fault_soak_smoke
// ctest target runs it on every test run — is the conservation contract:
//
//   * BUDGET LEAK: ε spent (service-wide and per session) must equal the
//     Σ ε of delivered answers exactly — every failure path refunded.
//   * LEDGER MISMATCH: exactly one composition-ledger entry per delivery.
//   * ADMISSION LEAK: admitted + rejected == batches submitted, and the
//     observed peak in-flight respects max_concurrent_batches.
//   * REPLAY DIVERGENCE (torn snapshot): every delivered answer against the
//     final published generation must be bit-identical to a serial
//     recomputation from that snapshot with the recorded (session, seq)
//     seed.
//
// And implicitly: the process survives every round — no injected fault,
// overload, deadline, or cancellation ever reaches std::terminate.
//
// Knobs: OSDP_BENCH_SOAK_ROUNDS (default 16 — two laps of the 8-entry
// schedule), OSDP_BENCH_MAX_ROWS (seed table rows, default 20000),
// OSDP_BENCH_SOAK_READERS (analyst threads, default 4), OSDP_BENCH_JSON
// (artifact path, default BENCH_fault_soak.json).

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/benchdata/table_gen.h"
#include "src/common/cancel.h"
#include "src/common/distributions.h"
#include "src/common/fault.h"
#include "src/common/random.h"
#include "src/core/engine.h"
#include "src/data/compiled_predicate.h"
#include "src/data/predicate.h"
#include "src/eval/table_printer.h"
#include "src/hist/histogram_query.h"
#include "src/policy/policy.h"
#include "src/runtime/query_service.h"
#include "src/runtime/thread_pool.h"

using namespace osdp;

namespace {

double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Policy BenchPolicy() {
  return Policy::SensitiveWhen(
      Predicate::Or(Predicate::Eq("opt_in", Value(0)),
                    Predicate::Lt("age", Value(18))),
      "bench_policy");
}

// The fault catalog (docs/robustness.md), round-robin; nullptr = baseline
// round with the registry quiet.
struct FaultSpec {
  const char* point;  // nullptr = no fault this round
  FaultRegistry::Schedule schedule;
};

constexpr FaultSpec kFaultSchedule[] = {
    {nullptr, {}},
    {"mask_cache/insert", {2, 3, 6}},
    {"mask_cache/attach", {2, 3, 6}},
    {"mechanism/run", {1, 2, 8}},
    {"query/execute", {3, 5, 6}},
    {"thread_pool/chunk", {7, 11, 4}},
    {"ingest/append", {1, 2, 2}},
    {"ingest/publish", {2, 2, 2}},
};
constexpr size_t kFaultScheduleSize =
    sizeof(kFaultSchedule) / sizeof(kFaultSchedule[0]);

struct RoundStats {
  const char* fault = "none";
  size_t submitted = 0;
  size_t delivered = 0;
  size_t rejected = 0;
  size_t deadline = 0;
  size_t cancelled = 0;
  size_t injected = 0;
  uint64_t fires = 0;
  size_t replayed = 0;
  double seconds = 0.0;
  bench::LatencyStats lat;  // delivered-query server durations (us)
};

int g_violations = 0;

void Violation(const char* what, size_t round, const std::string& detail) {
  std::fprintf(stderr, "%s (round %zu, fault %s): %s\n", what, round,
               kFaultSchedule[round % kFaultScheduleSize].point == nullptr
                   ? "none"
                   : kFaultSchedule[round % kFaultScheduleSize].point,
               detail.c_str());
  ++g_violations;
}

}  // namespace

int main() {
  const char* rounds_env = std::getenv("OSDP_BENCH_SOAK_ROUNDS");
  const size_t rounds =
      rounds_env ? static_cast<size_t>(std::atoll(rounds_env)) : 16;
  const char* rows_env = std::getenv("OSDP_BENCH_MAX_ROWS");
  const size_t seed_rows =
      rows_env ? static_cast<size_t>(std::atoll(rows_env)) : 20000;
  const char* readers_env = std::getenv("OSDP_BENCH_SOAK_READERS");
  const int num_readers =
      readers_env ? static_cast<int>(std::atoll(readers_env)) : 4;

  constexpr int kBatchesPerReader = 10;
  constexpr size_t kQueriesPerBatch = 2;
  constexpr int kIngests = 6;
  constexpr size_t kIngestRows = 97;
  constexpr double kEps = 0.001;
  constexpr uint64_t kRootSeed = 0x50AC;
  const Domain1D age_domain = *Domain1D::Numeric(0, 100, 16);
  const Policy policy = BenchPolicy();

  std::printf("=== fault soak: %zu rounds, %d readers, %zu seed rows ===\n\n",
              rounds, num_readers, seed_rows);

  const auto make_query = [&](int s, int q) -> ServiceRequest {
    if ((s + q) % 4 == 3) {
      std::optional<Predicate> where;
      if ((s + q) % 8 == 7) where = Predicate::Eq("opt_in", Value(1));
      return HistogramRequest{HistogramQuery{"age", age_domain, where}, kEps,
                              EngineMechanism::kOsdpLaplaceL1};
    }
    CountRequest count{
        Predicate::Le("age", Value(10 + (7 * s + 13 * q) % 80)), kEps};
    if (q % 5 == 4) {
      count.deadline =
          std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
    }
    return count;
  };
  const auto make_ingest_batch = [&](size_t round, int g) {
    CensusTableOptions opts;
    opts.num_rows = kIngestRows;
    opts.seed = 0xC0DE + (round << 8) + static_cast<uint64_t>(g);
    return MakeCensusTable(opts);
  };

  std::vector<RoundStats> stats;
  for (size_t round = 0; round < rounds; ++round) {
    const FaultSpec& spec = kFaultSchedule[round % kFaultScheduleSize];
    RoundStats rs;
    rs.fault = spec.point == nullptr ? "none" : spec.point;

    CensusTableOptions topts;
    topts.num_rows = seed_rows;
    topts.seed = 0x9A;
    OsdpEngine::Options eopts;
    eopts.total_epsilon = 1e6;
    ThreadPool pool(2);
    QueryService::Options sopts;
    sopts.pool = &pool;
    sopts.per_session_epsilon = 1e5;
    sopts.seed = kRootSeed + round;
    sopts.max_concurrent_batches = 2;
    auto service = *QueryService::Create(
        *OsdpEngine::Create(MakeCensusTable(topts), policy, eopts), sopts);
    const double service_total = service->remaining_budget();

    std::vector<QueryService::SessionId> sessions;
    for (int s = 0; s < num_readers; ++s) {
      sessions.push_back(service->OpenSession("soak-" + std::to_string(s)));
    }

    struct Delivered {
      uint64_t generation = 0;
      uint64_t seq = 0;
      bool is_histogram = false;
      double count = 0.0;
      std::vector<double> bins;
      int s = 0;
      int q = 0;
    };
    std::vector<std::vector<Delivered>> delivered(num_readers);
    std::vector<std::vector<double>> delivered_us(num_readers);
    std::vector<double> delivered_eps(num_readers, 0.0);
    std::atomic<size_t> rejected{0}, deadline{0}, cancelled{0}, injected{0};
    std::atomic<bool> unclassified_failure{false};

    if (spec.point != nullptr) {
      FaultRegistry::Global().Arm(spec.point, spec.schedule);
    }
    CancelToken round_token;
    const double t0 = NowSec();

    std::thread writer([&] {
      for (int g = 0; g < kIngests; ++g) {
        auto result = service->Ingest(make_ingest_batch(round, g));
        if (!result.ok() &&
            result.status().message().find("injected fault") ==
                std::string::npos) {
          unclassified_failure.store(true);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
    std::thread canceller([&] {
      std::this_thread::sleep_for(std::chrono::microseconds(700));
      round_token.Cancel();
    });
    std::vector<std::thread> reader_threads;
    for (int s = 0; s < num_readers; ++s) {
      reader_threads.emplace_back([&, s] {
        for (int b = 0; b < kBatchesPerReader; ++b) {
          std::vector<ServiceRequest> batch;
          std::vector<int> qids;
          for (size_t k = 0; k < kQueriesPerBatch; ++k) {
            const int q = b * static_cast<int>(kQueriesPerBatch) +
                          static_cast<int>(k);
            batch.push_back(make_query(s, q));
            qids.push_back(q);
          }
          QueryService::BatchControl control;
          if (b % 3 == 2) control.cancel = round_token;
          const auto results =
              service->AnswerBatch(sessions[s], batch, control);
          for (size_t k = 0; k < results.size(); ++k) {
            const auto& r = results[k];
            if (!r.ok()) {
              switch (r.status().code()) {
                case StatusCode::kResourceExhausted:
                  rejected.fetch_add(1);
                  break;
                case StatusCode::kDeadlineExceeded:
                  deadline.fetch_add(1);
                  break;
                case StatusCode::kCancelled:
                  cancelled.fetch_add(1);
                  break;
                case StatusCode::kInternal:
                  injected.fetch_add(1);
                  break;
                default:
                  unclassified_failure.store(true);
              }
              continue;
            }
            Delivered d;
            d.generation = r->generation;
            d.seq = r->seq;
            d.s = s;
            d.q = qids[k];
            if (r->histogram.has_value()) {
              d.is_histogram = true;
              d.bins = r->histogram->counts();
            } else {
              d.count = r->count;
            }
            delivered[s].push_back(std::move(d));
            delivered_us[s].push_back(r->server_duration_micros);
            delivered_eps[s] += kEps;
          }
        }
      });
    }
    writer.join();
    canceller.join();
    for (std::thread& t : reader_threads) t.join();
    if (spec.point != nullptr) {
      rs.fires = FaultRegistry::Global().fires(spec.point);
    }
    FaultRegistry::Global().DisarmAll();

    // Quiescent tail: guaranteed deliveries against the final generation so
    // the replay leg below always has coverage. (100 + 5s dodges the
    // make_query deadline branch.)
    for (int s = 0; s < num_readers; ++s) {
      const int q = 100 + 5 * s;
      std::vector<ServiceRequest> tail;
      tail.push_back(make_query(s, q));
      auto result = std::move(service->AnswerBatch(sessions[s], tail)[0]);
      if (!result.ok()) {
        Violation("QUIESCENT TAIL FAILED", round, result.status().ToString());
        continue;
      }
      Delivered d;
      d.generation = result->generation;
      d.seq = result->seq;
      d.s = s;
      d.q = q;
      if (result->histogram.has_value()) {
        d.is_histogram = true;
        d.bins = result->histogram->counts();
      } else {
        d.count = result->count;
      }
      delivered[s].push_back(std::move(d));
      delivered_us[s].push_back(result->server_duration_micros);
      delivered_eps[s] += kEps;
    }
    rs.seconds = NowSec() - t0;

    if (unclassified_failure.load()) {
      Violation("UNCLASSIFIED FAILURE", round,
                "a slot failed with an unexpected status code");
    }

    // ---- Invariant: exact ε conservation, per session and service-wide.
    double total_delivered_eps = 0.0;
    size_t total_delivered = 0;
    for (int s = 0; s < num_readers; ++s) {
      total_delivered_eps += delivered_eps[s];
      total_delivered += delivered[s].size();
      const double spent =
          sopts.per_session_epsilon - *service->session_remaining(sessions[s]);
      if (std::abs(spent - delivered_eps[s]) > 1e-9) {
        Violation("BUDGET LEAK", round,
                  "session " + std::to_string(s) + " spent " +
                      std::to_string(spent) + " != delivered " +
                      std::to_string(delivered_eps[s]));
      }
    }
    const double service_spent = service_total - service->remaining_budget();
    if (std::abs(service_spent - total_delivered_eps) > 1e-9) {
      Violation("BUDGET LEAK", round,
                "service spent " + std::to_string(service_spent) +
                    " != delivered " + std::to_string(total_delivered_eps));
    }

    // ---- Invariant: the ledger records exactly the deliveries.
    if (service->ledger().size() != total_delivered) {
      Violation("LEDGER MISMATCH", round,
                std::to_string(service->ledger().size()) + " entries vs " +
                    std::to_string(total_delivered) + " deliveries");
    }

    // ---- Invariant: admission accounting closes.
    const QueryService::AdmissionStats admission = service->admission_stats();
    const uint64_t submitted_batches = static_cast<uint64_t>(
        num_readers * kBatchesPerReader + num_readers);
    if (admission.admitted + admission.rejected != submitted_batches) {
      Violation("ADMISSION LEAK", round,
                std::to_string(admission.admitted) + " admitted + " +
                    std::to_string(admission.rejected) + " rejected != " +
                    std::to_string(submitted_batches) + " submitted");
    }
    if (admission.peak_inflight > sopts.max_concurrent_batches) {
      Violation("ADMISSION LEAK", round,
                "peak_inflight " + std::to_string(admission.peak_inflight) +
                    " exceeds cap");
    }

    // ---- Invariant: no torn snapshot — replay every delivery against the
    // final published generation bit-for-bit from the immutable snapshot.
    CensusTableOptions replay_topts;
    replay_topts.num_rows = 10;  // only RunMechanism is used, not the data
    OsdpEngine replay_engine = *OsdpEngine::Create(
        MakeCensusTable(replay_topts), policy, OsdpEngine::Options{});
    const SnapshotPtr current = service->current_snapshot();
    for (int s = 0; s < num_readers; ++s) {
      for (const Delivered& d : delivered[s]) {
        if (d.generation != current->generation) continue;
        ++rs.replayed;
        Rng rng(QueryService::QuerySeed(sopts.seed, sessions[s], d.seq,
                                        d.generation));
        const ServiceRequest request = make_query(d.s, d.q);
        if (d.is_histogram) {
          const auto& hist = std::get<HistogramRequest>(request);
          const Histogram xns = *ComputeHistogramMasked(
              current->table, hist.query, current->non_sensitive);
          const Histogram x(hist.query.domain.size());
          const Histogram expected = *replay_engine.RunMechanism(
              x, xns, kEps, hist.mechanism, rng);
          if (d.bins != expected.counts()) {
            Violation("REPLAY DIVERGENCE", round,
                      "histogram session " + std::to_string(s) + " seq " +
                          std::to_string(d.seq));
          }
        } else {
          const auto& count = std::get<CountRequest>(request);
          RowMask matching =
              CompiledPredicate::Compile(count.where, current->table.schema())
                  ->EvalMask(current->table);
          matching.AndWith(current->non_sensitive);
          const double expected =
              static_cast<double>(matching.Count()) +
              SampleOneSidedLaplace(rng, 1.0 / kEps);
          if (d.count != expected) {
            Violation("REPLAY DIVERGENCE", round,
                      "count session " + std::to_string(s) + " seq " +
                          std::to_string(d.seq));
          }
        }
      }
    }
    if (rs.replayed < static_cast<size_t>(num_readers)) {
      Violation("REPLAY DIVERGENCE", round, "replay leg went dead");
    }

    rs.submitted = static_cast<size_t>(num_readers) *
                       (kBatchesPerReader * kQueriesPerBatch) +
                   static_cast<size_t>(num_readers);
    rs.delivered = total_delivered;
    rs.rejected = rejected.load();
    rs.deadline = deadline.load();
    rs.cancelled = cancelled.load();
    rs.injected = injected.load();
    std::vector<double> round_latencies;
    for (const auto& per_reader : delivered_us) {
      round_latencies.insert(round_latencies.end(), per_reader.begin(),
                             per_reader.end());
    }
    rs.lat = bench::SummarizeLatencies(std::move(round_latencies));
    stats.push_back(rs);
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
                 std::to_string(rs.replayed),
                 TextTable::FmtAuto(static_cast<double>(rs.submitted) /
                                    rs.seconds),
                 TextTable::Fmt(rs.lat.p50, 1), TextTable::Fmt(rs.lat.p99, 1)});
  }
  std::printf("%s\n", text.ToString().c_str());

  const char* json_env = std::getenv("OSDP_BENCH_JSON");
  const std::string json_path = json_env ? json_env : "BENCH_fault_soak.json";
  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"fault_soak\",\n"
               "  \"hardware_concurrency\": %u,\n  \"violations\": %d,\n"
               "  \"rounds\": [\n",
               std::thread::hardware_concurrency(), g_violations);
  for (size_t i = 0; i < stats.size(); ++i) {
    const RoundStats& rs = stats[i];
    std::fprintf(
        f,
        "    {\"round\": %zu, \"fault\": \"%s\", \"submitted\": %zu, "
        "\"delivered\": %zu, \"shed\": %zu, \"deadline\": %zu, "
        "\"cancelled\": %zu, \"injected\": %zu, \"fires\": %llu, "
        "\"replayed\": %zu, \"seconds\": %.6f, \"query_p50_us\": %.3f, "
        "\"query_p95_us\": %.3f, \"query_p99_us\": %.3f, "
        "\"query_max_us\": %.3f}%s\n",
        i, rs.fault, rs.submitted, rs.delivered, rs.rejected, rs.deadline,
        rs.cancelled, rs.injected, static_cast<unsigned long long>(rs.fires),
        rs.replayed, rs.seconds, rs.lat.p50, rs.lat.p95, rs.lat.p99,
        rs.lat.max, i + 1 < stats.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);

  if (g_violations > 0) {
    std::fprintf(stderr, "\nFAULT SOAK FAILED: %d invariant violation(s)\n",
                 g_violations);
    return 1;
  }
  std::printf("wrote %s (%zu rounds); all invariants held\n",
              json_path.c_str(), stats.size());
  return 0;
}
