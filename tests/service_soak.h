// The writer-vs-readers soak harness and its invariant checker, shared by the
// streaming stress tests, the fault soak test and the fault-soak and ingest
// benches.
//
// The paper's online setting (Section 7) is sound only if sequential
// composition (Theorem 3.3) holds while the data moves: ε spent must equal
// the Σε of delivered answers, and every delivery must replay bit for bit
// from the generation it names. RunSoak drives that setting and CheckSoak
// returns every invariant a run broke. A caller that times its own loop
// (bench_ingest) opens the run with OpenSoak, drives it through SoakIngest
// and SoakSubmit, and ends it with FinishSoak before CheckSoak.
//
// Header-only and gtest-free, like tests/serial_replay.h, whose ReplayAnswer
// it checks every delivery against. Nothing under src/ may include it.

#ifndef OSDP_TESTS_SERVICE_SOAK_H_
#define OSDP_TESTS_SERVICE_SOAK_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "src/common/cancel.h"
#include "src/common/fault.h"
#include "src/data/predicate.h"
#include "src/data/table.h"
#include "src/hist/histogram_query.h"
#include "src/mech/histogram_mechanism.h"
#include "src/runtime/query_service.h"
#include "src/runtime/thread_pool.h"
#include "tests/serial_replay.h"

namespace osdp {

/// One fault point, armed for a run's concurrent phase.
struct SoakFault {
  const char* point;
  FaultRegistry::Schedule schedule;
};

/// The fault catalog (docs/robustness.md) with the schedules the soaks arm.
inline constexpr SoakFault kSoakFaults[] = {
    {"mask_cache/insert", {2, 3, 4}},  {"mask_cache/attach", {2, 3, 4}},
    {"mechanism/run", {1, 2, 6}},      {"query/execute", {3, 5, 5}},
    {"thread_pool/chunk", {7, 11, 3}}, {"ingest/append", {1, 2, 2}},
    {"ingest/publish", {2, 2, 2}},
};

inline constexpr double kSoakSessionEpsilon = 1e3;
inline constexpr double kSoakServiceEpsilon = 1e5;
inline constexpr double kSoakEpsilon = 0.01;
inline constexpr size_t kSoakAdmissionCap = 2;  // batches, when `hostile`
/// How often a reader offers a batch the admission cap shed whole.
inline constexpr int kSoakAdmissionTries = 64;

/// What the soak callers set differently; everything else is a constant.
struct SoakConfig {
  uint64_t seed = 0x5EED;  // noise root seed; also seeds the writer's rows
  size_t seed_rows = 300;  // generation 0 = CensusEngine's rows
  int readers = 4;         // sessions, one thread each
  size_t queries_per_batch = 2;
  size_t pool_threads = 2;
  size_t mask_cache_bytes = 64ull << 20;
  bool metrics_enabled = true;
  /// The admission cap, an expired deadline on every fifth count, and a
  /// canceller that fires every third batch's token mid-round.
  bool hostile = false;
  std::optional<SoakFault> fault;
};

/// A slot that failed, and whether its request carried a deadline and its
/// batch a cancel token.
struct SoakFailure {
  Status status;
  bool deadline = false;
  bool cancellable = false;
};

/// What one session submitted and got back, in submission order.
struct SoakReader {
  QueryService::SessionId session = 0;
  std::vector<std::pair<ServiceRequest, ServiceAnswer>> delivered;
  std::vector<SoakFailure> failed;
  size_t batches = 0;
};

struct SoakRun {
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<QueryService> service;
  std::vector<SoakReader> readers;
  /// pinned[g] is generation g, pinned right after its Ingest returned.
  std::vector<SnapshotPtr> pinned;
  /// Every Ingest call: its batch, and the generation or error it returned.
  std::vector<std::pair<Table, Result<uint64_t>>> ingests;
  /// The quiescent tail: each session's tail count, then its repeat.
  std::vector<Result<ServiceAnswer>> tail;
};

/// Query `q` of session `s` in the shared mix: counts with rotating `age`
/// bounds, and every fourth query a histogram — OsdpLaplaceL1 without and
/// with a WHERE, DAWA on 1024 bins (the pooled engine build), Hierarchical.
inline ServiceRequest SoakQuery(const SoakConfig& config, int s, int q) {
  if ((s + q) % 4 == 3) {
    const int kind = (s + q) / 4 % 4;
    std::optional<Predicate> where;
    if (kind == 1) where = Predicate::Eq("opt_in", Value(1));
    const EngineMechanism mechanism =
        kind < 2 ? EngineMechanism::kOsdpLaplaceL1
                 : kind == 2 ? EngineMechanism::kDawa
                             : EngineMechanism::kHierarchical;
    const Domain1D age = *Domain1D::Numeric(0, 100, kind == 2 ? 1024 : 16);
    return HistogramRequest{HistogramQuery{"age", age, where}, kSoakEpsilon,
                            mechanism};
  }
  CountRequest count{Predicate::Le("age", Value(10 + (7 * s + 13 * q) % 80)),
                     kSoakEpsilon};
  if (config.hostile && q % 5 == 4) {
    count.deadline =
        std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  }
  return count;
}

/// The service, pool and sessions of a run, with generation 0 pinned.
/// Sessions open serially, so their ids do not depend on thread timing.
inline SoakRun OpenSoak(const SoakConfig& config) {
  SoakRun run;
  run.pool = std::make_unique<ThreadPool>(config.pool_threads);
  QueryService::Options opts;
  opts.pool = run.pool.get();
  opts.per_session_epsilon = kSoakSessionEpsilon;
  opts.seed = config.seed;
  opts.mask_cache_bytes = config.mask_cache_bytes;
  opts.metrics_enabled = config.metrics_enabled;
  opts.max_concurrent_batches = config.hostile ? kSoakAdmissionCap : 0;
  run.service = std::move(*QueryService::Create(
      CensusEngine(kSoakServiceEpsilon, config.seed_rows), opts));
  for (int s = 0; s < config.readers; ++s) {
    run.readers.push_back(
        {run.service->OpenSession("soak-" + std::to_string(s)), {}, {}, 0});
  }
  run.pinned.push_back(run.service->current_snapshot());
  return run;
}

/// Ingests `batch` and pins what it publishes; only the writer calls this.
inline void SoakIngest(SoakRun* run, Table batch) {
  Result<uint64_t> generation = run->service->Ingest(batch);
  if (generation.ok()) run->pinned.push_back(run->service->current_snapshot());
  run->ingests.emplace_back(std::move(batch), std::move(generation));
}

/// Submits `batch` as session `reader`'s next batch and records every slot;
/// only that session's thread calls this.
inline std::vector<Result<ServiceAnswer>> SoakSubmit(
    SoakRun* run, int reader, std::vector<ServiceRequest> batch,
    const QueryService::BatchControl& control = {}) {
  SoakReader& r = run->readers[reader];
  auto results = run->service->AnswerBatch(r.session, batch, control);
  ++r.batches;
  for (size_t k = 0; k < results.size(); ++k) {
    if (results[k].ok()) {
      r.delivered.emplace_back(std::move(batch[k]), *results[k]);
    } else {
      r.failed.push_back(
          {results[k].status(),
           std::visit([](const auto& q) { return q.deadline.has_value(); },
                      batch[k]),
           control.cancel.has_value()});
    }
  }
  return results;
}

/// The quiescent tail, with no fault armed and the writer done: each
/// session asks twice for a count no query of the mix asks (`age` bounds
/// stop at 89).
inline void FinishSoak(SoakRun* run) {
  const ServiceRequest tail =
      CountRequest{Predicate::Le("age", Value(95)), kSoakEpsilon};
  for (int s = 0; s < static_cast<int>(run->readers.size()); ++s) {
    for (int repeat = 0; repeat < 2; ++repeat) {
      run->tail.push_back(std::move(SoakSubmit(run, s, {tail})[0]));
    }
  }
}

/// Opens a run and drives it with `config.fault` armed: one writer ingests
/// census batches, one thread per session submits the mix and, when
/// `hostile`, a canceller fires once half the batches are under way. A
/// batch the admission cap shed whole is offered again, up to
/// kSoakAdmissionTries times, so which queries of the mix deliver does not
/// hang on thread timing; every shed attempt is still recorded. Ends with
/// the quiescent tail.
inline SoakRun RunSoak(const SoakConfig& config) {
  constexpr int kBatchesPerReader = 8;
  constexpr int kIngests = 8;
  constexpr size_t kIngestRows = 41;  // deliberately word-boundary-hostile
  SoakRun run = OpenSoak(config);
  if (config.fault) {
    FaultRegistry::Global().Arm(config.fault->point, config.fault->schedule);
  }
  CancelToken token;
  std::atomic<int> started{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (int g = 0; g < kIngests; ++g) {
      SoakIngest(&run, CensusRows(kIngestRows, config.seed + 0xB000 + g));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  if (config.hostile) {
    threads.emplace_back([&] {
      while (started.load() < config.readers * kBatchesPerReader / 2) {
        std::this_thread::yield();
      }
      token.Cancel();
    });
  }
  for (int s = 0; s < config.readers; ++s) {
    threads.emplace_back([&, s] {
      const int per_batch = static_cast<int>(config.queries_per_batch);
      for (int b = 0; b < kBatchesPerReader; ++b) {
        std::vector<ServiceRequest> batch;
        for (int k = 0; k < per_batch; ++k) {
          batch.push_back(SoakQuery(config, s, b * per_batch + k));
        }
        QueryService::BatchControl control;
        if (config.hostile && b % 3 == 2) control.cancel = token;
        started.fetch_add(1);
        for (int tries = 1;; ++tries) {
          const std::vector<Result<ServiceAnswer>> results =
              SoakSubmit(&run, s, batch, control);
          const bool shed = std::all_of(
              results.begin(), results.end(), [](const auto& r) {
                return r.status().code() == StatusCode::kResourceExhausted;
              });
          if (!shed || tries == kSoakAdmissionTries) break;
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Disarm keeps the point's fire count readable until it is armed again.
  if (config.fault) FaultRegistry::Global().Disarm(config.fault->point);
  FinishSoak(&run);
  return run;
}

/// True when `a` and `b` hold the same cells.
inline bool SameCells(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows() || !(a.schema() == b.schema())) {
    return false;
  }
  for (size_t c = 0; c < a.num_columns(); ++c) {
    const ValueType type = a.schema().field(c).type;
    if (type == ValueType::kInt64 ? a.Int64Column(c) != b.Int64Column(c)
        : type == ValueType::kDouble
            ? a.DoubleColumn(c) != b.DoubleColumn(c)
            : a.StringColumn(c) != b.StringColumn(c)) {
      return false;
    }
  }
  return true;
}

/// \brief Every invariant `run` broke, one string each; empty when sound.
/// Every check applies to every run; docs/robustness.md lists them.
inline std::vector<std::string> CheckSoak(const SoakConfig& config,
                                          const SoakRun& run) {
  using std::to_string;
  std::vector<std::string> bad;
  const QueryService& service = *run.service;
  const std::string fault = config.fault ? config.fault->point : "";
  const auto names_fault = [&](const Status& status) {
    return !fault.empty() && status.code() == StatusCode::kInternal &&
           status.message().find(fault) != std::string::npos;
  };

  // The rebuild appends every batch whose rows entered the builder: each
  // success, and each batch an "ingest/publish" fault left unpublished.
  Table rebuilt = CensusRows(config.seed_rows, kCensusEngineSeed);
  uint64_t published = 0;
  for (const auto& [batch, generation] : run.ingests) {
    const Status& status = generation.status();
    if (!status.ok() &&
        (fault.rfind("ingest/", 0) != 0 || !names_fault(status))) {
      bad.push_back("UNCLASSIFIED INGEST FAILURE: " + status.ToString());
    }
    if ((status.ok() || fault == "ingest/publish") &&
        !rebuilt.AppendRows(batch).ok()) {
      bad.push_back("REBUILD: a batch does not append");
    }
    if (!status.ok()) continue;
    if (*generation != ++published ||
        published >= run.pinned.size() ||
        run.pinned[published]->generation != published) {
      bad.push_back("GENERATION: ingest " + to_string(published) +
                    " returned or pinned another generation");
      continue;
    }
    const Snapshot& snap = *run.pinned[published];
    if (!SameCells(snap.table, rebuilt) ||
        !(snap.non_sensitive == CensusPolicy().NonSensitiveRowMask(rebuilt))) {
      bad.push_back("REBUILD: generation " + to_string(published) +
                    " differs from a from-scratch rebuild");
    }
  }
  if (run.pinned.size() != published + 1 || run.pinned[0]->generation != 0 ||
      service.current_generation() != published) {
    bad.push_back("GENERATION: pinned generations are not 0.." +
                  to_string(published));
  }

  double total_eps = 0.0;
  size_t delivered = 0, batches = 0, shed = 0;
  for (size_t s = 0; s < run.readers.size(); ++s) {
    const SoakReader& r = run.readers[s];
    const std::string who = "session " + to_string(s);
    // A failure needs a cause the run set up: the admission cap, the
    // request's own deadline, its batch's token, or the armed fault. With
    // none of them, every query must deliver.
    for (const SoakFailure& f : r.failed) {
      const StatusCode code = f.status.code();
      shed += code == StatusCode::kResourceExhausted;
      if (!(code == StatusCode::kResourceExhausted && config.hostile) &&
          !(code == StatusCode::kDeadlineExceeded && f.deadline) &&
          !(code == StatusCode::kCancelled && f.cancellable) &&
          !names_fault(f.status)) {
        bad.push_back("UNCLASSIFIED FAILURE: " + who + ": " +
                      f.status.ToString());
      }
    }
    double eps = 0.0;
    uint64_t last_generation = 0;
    for (const auto& [request, a] : r.delivered) {
      eps += std::visit([](const auto& q) { return q.epsilon; }, request);
      const std::string which = who + " seq " + to_string(a.seq) +
                                " generation " + to_string(a.generation);
      if (a.generation < last_generation) {
        bad.push_back("GENERATION: " + which + " went back in time");
      }
      last_generation = a.generation;
      if (a.generation >= run.pinned.size()) {
        bad.push_back("REPLAY DIVERGENCE: " + which + " is unpublished");
        continue;
      }
      const Snapshot& snap = *run.pinned[a.generation];
      const Result<ServiceAnswer> expected =
          ReplayAnswer(snap.table, snap.non_sensitive, request, config.seed,
                       r.session, a.seq, a.generation);
      if (!expected.ok() || !SameRelease(a, *expected)) {
        bad.push_back("REPLAY DIVERGENCE: " + which);
      }
    }
    const double spent =
        kSoakSessionEpsilon - *service.session_remaining(r.session);
    if (std::abs(spent - eps) > 1e-9) {
      bad.push_back("BUDGET LEAK: " + who + " spent " + to_string(spent) +
                    " != delivered " + to_string(eps));
    }
    total_eps += eps;
    delivered += r.delivered.size();
    batches += r.batches;
  }

  // The tail runs on the last generation; with the cache on, its first query
  // is the run's first of that clause and every repeat is a hit.
  for (size_t i = 0; i < run.tail.size(); ++i) {
    const Result<ServiceAnswer>& a = run.tail[i];
    if (!a.ok() || a->generation != published) {
      bad.push_back("QUIESCENT TAIL FAILED: " +
                    (a.ok() ? "generation " + to_string(a->generation)
                            : a.status().ToString()));
    } else if (config.mask_cache_bytes > 0 &&
               (i == 0 ? a->cache_hit : i % 2 == 1 && !a->cache_hit)) {
      bad.push_back("CACHE: tail query " + to_string(i) +
                    (a->cache_hit ? " hit" : " missed"));
    }
  }
  const MaskCache::Stats cache = service.cache_stats();
  if (config.mask_cache_bytes == 0 && cache.hits + cache.misses != 0) {
    bad.push_back("CACHE: the disabled cache was touched");
  }

  const double service_spent =
      kSoakServiceEpsilon - service.remaining_budget();
  if (std::abs(service_spent - total_eps) > 1e-9) {
    bad.push_back("BUDGET LEAK: service spent " + to_string(service_spent) +
                  " != delivered " + to_string(total_eps));
  }
  const Result<ComposedGuarantee> guarantee = service.CurrentGuarantee();
  if (!guarantee.ok() || std::abs(guarantee->epsilon - total_eps) > 1e-9) {
    bad.push_back("GUARANTEE: composed ε is not the delivered " +
                  to_string(total_eps));
  }
  if (service.ledger().size() != delivered) {
    bad.push_back("LEDGER MISMATCH: " + to_string(service.ledger().size()) +
                  " entries vs " + to_string(delivered) + " deliveries");
  }
  const QueryService::AdmissionStats admission = service.admission_stats();
  if (admission.admitted + admission.rejected != batches ||
      (config.hostile && admission.peak_inflight > kSoakAdmissionCap) ||
      shed != admission.rejected * config.queries_per_batch) {
    bad.push_back("ADMISSION LEAK: " + to_string(admission.admitted) +
                  " admitted + " + to_string(admission.rejected) +
                  " rejected of " + to_string(batches) + " batches, peak " +
                  to_string(admission.peak_inflight) + ", " + to_string(shed) +
                  " slots shed");
  }
  return bad;
}

}  // namespace osdp

#endif  // OSDP_TESTS_SERVICE_SOAK_H_
