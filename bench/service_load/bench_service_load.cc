// bench_service_load: a closed-loop load benchmark of QueryService, the
// paper's online setting (analysts asking one-sided counts, OSDP-Laplace-L1,
// DAWAz and DP-baseline histograms of a policy-split dataset).
//
// One process runs one workload. Two analyst sessions each drive the service
// from their own client thread and wait for every AnswerBatch to return
// before sending the next (closed loop). The service runs on its own
// ThreadPool(1); mixed_ingest adds one writer thread. That is at most four
// runnable threads, whatever the host reports.
//
//   hot_counts     16 repeated count clauses: every lookup hits the mask
//                  cache, so a count is mask copy + AND + popcount plus
//                  accounting. Exercises runtime combine and accounting.
//   fresh_scans    every count has a new WHERE clause: every lookup misses
//                  and the cache churns. Exercises the compiled scan.
//   mech_releases  zip histograms at d=4096 (DAWA, DAWAz, hierarchical,
//                  OSDP-Laplace-L1) over 4 cached clauses. Exercises mech.
//   mixed_ingest   all of the above plus a writer that ingests one 4096-row
//                  batch per 16 completed read batches, so every generation
//                  invalidates the cached masks.
//
// Inputs come from --seed only: the census tables, both request streams, the
// ingest batches and the service's root noise seed. The measured phase runs
// for --seconds of wall time. End-to-end metrics are measured with
// telemetry off. --traced turns telemetry on, scrapes the service, and
// re-executes a sample of delivered requests layer by layer (layers.h) to
// attribute query time to data, runtime, hist, mech and accounting.
//
// Checks (any failure prints "correct": false and exits 1):
//   * every query delivers; the service ledger holds one entry per delivery;
//     the service and each session spent exactly the ε they delivered;
//   * 1 in 16 delivered answers, chosen by (session, seq), is recomputed
//     serially from a from-scratch rebuild of its generation and
//     QuerySeed(root, session, seq, generation), and must match bit for bit
//     (--inject-divergence flips one replayed bit to prove the check fires);
//   * with --traced, every layered-replay answer matches bit for bit, the
//     replay's glue between timed calls stays under 10% of replay time, the
//     stages of every traced query fit inside its service time, and the pool
//     worker is busy for at most the phase's wall time.
//
// Usage:
//   bench_service_load --workload=NAME [--seed=N] [--seconds=S] [--traced]
//                      [--smoke] [--json=PATH] [--label=TEXT]
//                      [--inject-divergence]
// The last line of stdout is one JSON object with every metric, its unit,
// the checks, hardware_concurrency, the build type and --label. A table goes
// to stderr. bench/service_load/run.py builds this binary and wraps it.

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "bench/service_load/layers.h"
#include "src/benchdata/table_gen.h"
#include "src/common/distributions.h"
#include "src/common/random.h"
#include "src/core/engine.h"
#include "src/data/compiled_predicate.h"
#include "src/data/predicate.h"
#include "src/data/snapshot_store.h"
#include "src/data/table_builder.h"
#include "src/hist/histogram_query.h"
#include "src/policy/policy.h"
#include "src/runtime/query_service.h"
#include "src/runtime/thread_pool.h"

#ifndef OSDP_BENCH_BUILD_TYPE
#define OSDP_BENCH_BUILD_TYPE "unknown"
#endif

using namespace osdp;
using namespace osdp::service_load;

namespace {

constexpr double kEpsilon = 1e-2;
constexpr size_t kSessions = 2;
// 1 in kReplayEvery delivered answers is kept and replayed serially (every
// answer under --smoke, whose runs are too short to sample).
constexpr uint64_t kReplayEvery = 16;
// Requests re-executed layer by layer in a traced run.
constexpr size_t kLayeredSample = 256;
// One ingest batch is one storage chunk (kChunkRows).
constexpr size_t kIngestRows = 4096;
// mixed_ingest publishes a generation per this many completed read batches.
// Tied to read progress, every run sees the same number of reads per
// generation whatever its throughput; a timed writer would give a faster
// change more reads per generation and so a higher cache hit ratio.
constexpr uint64_t kBatchesPerIngest = 16;
// The other workloads ingest this many batches, evenly paced over the
// measured phase, into a second service over the same data.
constexpr size_t kPacedIngests = 200;
// Batches a traced run appends to a builder outside the service.
constexpr size_t kSideBuilderBatches = 64;
constexpr int kSetups = 9;
constexpr size_t kSmokeDivisor = 50;
// Largest glue share of layered-replay time. Smoke tables are 50x smaller,
// so a hot count takes a few microseconds and the clock reads around each
// call weigh more.
constexpr double kMaxGlue = 0.10;
constexpr double kMaxGlueSmoke = 0.25;

using Clock = std::chrono::steady_clock;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a ^ (b * 0x9E3779B97F4A7C15ULL + 0x632BE59BD9B4E019ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// ------------------------------------------------------------------ inputs

enum class Kind : uint8_t { kHotCount, kFreshCount, kHistogram };

// One entry of a workload's traffic mix.
struct MixEntry {
  double weight;
  Kind kind;
  EngineMechanism mech = EngineMechanism::kOsdpLaplaceL1;
  bool age_bins = false;  // histogram of age (100 bins), else zip (4096)
};

struct Workload {
  const char* name;
  size_t rows;
  size_t batch;
  bool concurrent_ingest;
  std::vector<MixEntry> mix;
};

const std::vector<Workload>& Workloads() {
  using M = EngineMechanism;
  static const std::vector<Workload> kWorkloads = {
      {"hot_counts", 1000000, 8, false, {{1.0, Kind::kHotCount}}},
      {"fresh_scans", 2000000, 4, false, {{1.0, Kind::kFreshCount}}},
      {"mech_releases",
       200000,
       4,
       false,
       {{0.35, Kind::kHistogram, M::kDawa},
        {0.35, Kind::kHistogram, M::kDawaz},
        {0.15, Kind::kHistogram, M::kHierarchical},
        {0.15, Kind::kHistogram, M::kOsdpLaplaceL1}}},
      {"mixed_ingest",
       1000000,
       8,
       true,
       {{0.50, Kind::kHotCount},
        {0.20, Kind::kFreshCount},
        {0.20, Kind::kHistogram, M::kOsdpLaplaceL1, true},
        {0.05, Kind::kHistogram, M::kDawa},
        {0.05, Kind::kHistogram, M::kHierarchical}}},
  };
  return kWorkloads;
}

// A compact request descriptor: enough to rebuild the request exactly, so a
// run can keep every sampled request without holding predicate trees.
struct QuerySpec {
  uint8_t entry = 0;   // index into the workload's mix
  uint8_t clause = 0;  // hot clause of a count, WHERE clause of a histogram
  int32_t age_lo = 0;  // fresh count: age in [age_lo, age_lo + age_span]
  int32_t age_span = 0;
  int32_t zip_lo = 0;  // fresh count: zip >= zip_lo
};

constexpr size_t kHotClauses = 16;
constexpr size_t kHistClauses = 4;

// Sixteen fixed clauses in four shapes: age range, zip cut, race set,
// age-and-income. Constants are fixed (not seeded) so selectivities, and with
// them per-query cost, are the same for every seed.
Predicate HotClause(size_t i) {
  const int j = static_cast<int>(i % 4);
  switch (i / 4) {
    case 0:
      return Predicate::And(Predicate::Ge("age", Value(20 + 10 * j)),
                            Predicate::Le("age", Value(44 + 10 * j)));
    case 1:
      return Predicate::Ge("zip", Value(1000 + 2000 * j));
    case 2:
      return Predicate::In("race", {Value("C" + std::to_string(j)),
                                    Value("C" + std::to_string(j + 4))});
    default:
      return Predicate::And(
          Predicate::Le("age", Value(35 + 10 * j)),
          Predicate::Lt("income", Value(25000.0 + 15000.0 * j)));
  }
}

Policy BenchPolicy() {
  return Policy::SensitiveWhen(
      Predicate::Or(Predicate::Eq("opt_in", Value(0)),
                    Predicate::Lt("age", Value(18))),
      "service_load_policy");
}

Table CensusRows(size_t rows, uint64_t seed) {
  CensusTableOptions opts;
  opts.num_rows = rows;
  opts.seed = seed;
  return MakeCensusTable(opts);
}

// Everything a run derives from (workload, seed).
class Inputs {
 public:
  Inputs(const Workload& w, uint64_t seed, size_t rows)
      : workload_(w),
        seed_(seed),
        rows_(rows),
        zip_domain_(*Domain1D::Numeric(0.0, 10000.0, 4096)),
        age_domain_(*Domain1D::Numeric(0.0, 100.0, 100)) {
    for (size_t i = 0; i < kHotClauses; ++i) hot_.push_back(HotClause(i));
  }

  const Workload& workload() const { return workload_; }
  size_t rows() const { return rows_; }
  uint64_t table_seed() const { return Mix(seed_, 1); }
  uint64_t service_seed() const { return Mix(seed_, 2); }
  uint64_t engine_seed() const { return Mix(seed_, 3); }
  uint64_t client_seed(size_t s) const { return Mix(seed_, 100 + s); }

  RowBatch IngestBatch(uint64_t generation) const {
    return CensusRows(kIngestRows, Mix(seed_, 1000000 + generation));
  }

  QuerySpec Draw(Rng& rng) const {
    QuerySpec spec;
    const double u = rng.NextDouble();
    double cumulative = 0.0;
    spec.entry = static_cast<uint8_t>(workload_.mix.size() - 1);
    for (size_t e = 0; e < workload_.mix.size(); ++e) {
      cumulative += workload_.mix[e].weight;
      if (u < cumulative) {
        spec.entry = static_cast<uint8_t>(e);
        break;
      }
    }
    switch (workload_.mix[spec.entry].kind) {
      case Kind::kHotCount:
        spec.clause = static_cast<uint8_t>(rng.NextBounded(kHotClauses));
        break;
      case Kind::kFreshCount:
        // Adult ages and the lower half of zips keep every fresh count's
        // true answer large, so its relative error is steady across seeds.
        spec.age_lo = static_cast<int32_t>(18 + rng.NextBounded(62));
        spec.age_span = static_cast<int32_t>(1 + rng.NextBounded(20));
        spec.zip_lo = static_cast<int32_t>(rng.NextBounded(5000));
        break;
      case Kind::kHistogram:
        spec.clause = static_cast<uint8_t>(rng.NextBounded(kHistClauses));
        break;
    }
    return spec;
  }

  // The WHERE clause of a request.
  Predicate Where(const QuerySpec& spec) const {
    switch (workload_.mix[spec.entry].kind) {
      case Kind::kHotCount:
        return hot_[spec.clause];
      case Kind::kFreshCount:
        return Predicate::And(
            Predicate::And(Predicate::Ge("age", Value(spec.age_lo)),
                           Predicate::Le("age",
                                         Value(spec.age_lo + spec.age_span))),
            Predicate::Ge("zip", Value(spec.zip_lo)));
      case Kind::kHistogram:
        break;
    }
    // Histogram WHERE clauses: one clause of each hot shape.
    return hot_[spec.clause * 4];
  }

  ServiceRequest ToRequest(const QuerySpec& spec) const {
    const MixEntry& e = workload_.mix[spec.entry];
    if (e.kind != Kind::kHistogram) return CountRequest{Where(spec), kEpsilon};
    HistogramQuery query{e.age_bins ? "age" : "zip",
                         e.age_bins ? age_domain_ : zip_domain_, Where(spec)};
    return HistogramRequest{std::move(query), kEpsilon, e.mech};
  }

  // The set-up warm pass: a count over each of the 16 hot clauses, then one
  // histogram of each of the workload's histogram entries over each of its
  // clauses. Every workload runs it, so set-up always includes scans (and
  // releases where the workload makes them) and is long enough to time
  // steadily, not just the few milliseconds of the two Create calls.
  std::vector<ServiceRequest> WarmRequests() const {
    std::vector<ServiceRequest> out;
    for (size_t i = 0; i < kHotClauses; ++i) {
      out.push_back(CountRequest{hot_[i], kEpsilon});
    }
    for (size_t e = 0; e < workload_.mix.size(); ++e) {
      if (workload_.mix[e].kind != Kind::kHistogram) continue;
      for (size_t c = 0; c < kHistClauses; ++c) {
        QuerySpec spec;
        spec.entry = static_cast<uint8_t>(e);
        spec.clause = static_cast<uint8_t>(c);
        out.push_back(ToRequest(spec));
      }
    }
    return out;
  }

 private:
  const Workload& workload_;
  uint64_t seed_;
  size_t rows_;
  Domain1D zip_domain_;
  Domain1D age_domain_;
  std::vector<Predicate> hot_;
};

// ----------------------------------------------------------- measurement

double ReadVmHwmMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double HeapBytes() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd);
}

// Time the pool's worker threads spent running tasks. The task histogram is
// recorded in the worker loop only; the pool's busy_ns also counts the time
// ParallelForBlocked callers drain chunks themselves, which counts nested
// loops twice and can exceed the workers' capacity.
double WorkerBusyNs(const ThreadPool& pool) {
  const obs::LatencyHistogram::Summary s = pool.task_histogram().Summarize();
  return s.mean_ns * static_cast<double>(s.count);
}

// A delivered answer kept for the correctness replays.
struct Sampled {
  size_t session = 0;  // index into the session list
  uint64_t seq = 0;
  uint64_t generation = 0;
  QuerySpec spec;
  bool cache_hit = false;
  double count = 0.0;
  std::vector<double> histogram;
};

struct BatchRecord {
  double end_s;  // completion, seconds after the phase started
  double ms;     // client-timed AnswerBatch latency
  uint32_t delivered;
};

// Traced runs: when a batch was submitted (obs::NowNs() just before
// AnswerBatch, the clock service.query_ns starts from) and the seqs its
// deliveries consumed. A session's batches run one after another, so their
// seq ranges are disjoint and increasing.
struct BatchSubmit {
  uint64_t submit_ns;
  uint64_t first_seq;
  uint64_t last_seq;
};

struct ClientLog {
  std::vector<BatchRecord> batches;
  std::vector<BatchSubmit> submits;
  uint64_t attempted = 0;
  uint64_t delivered = 0;
  uint64_t failed = 0;
  std::string first_error;
  std::vector<Sampled> sampled;
  Clock::time_point end;
};

struct Phase {
  Clock::time_point start;
  double wall_s = 0.0;
  std::vector<ClientLog> clients;
  std::vector<double> ingest_ms;
  uint64_t ingest_failed = 0;
  std::string ingest_error;
  // Traced runs keep every generation the reads saw, indexed by generation.
  std::vector<SnapshotPtr> snapshots;
};

uint64_t SteadyNs(Clock::time_point t) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t.time_since_epoch())
          .count());
}

// The closed loop: kSessions clients reading `service` for `seconds`, and a
// writer ingesting into `ingest_target`. On mixed_ingest that is the measured
// service itself, once per kBatchesPerIngest completed read batches. On the
// other workloads it is a second service over the same data, paced evenly
// over the phase, so ingest latency is measured beside the same read load
// without invalidating the measured service's cached masks.
Phase RunPhase(QueryService& service, QueryService& ingest_target,
               const Inputs& in,
               const std::vector<QueryService::SessionId>& sessions,
               double seconds, uint64_t replay_every, bool traced) {
  const Workload& w = in.workload();
  Phase out;
  out.clients.resize(kSessions);
  if (traced) out.snapshots.push_back(service.current_snapshot());

  std::atomic<bool> go{false};
  Clock::time_point deadline;  // written before `go` is released
  std::atomic<uint64_t> batches_done{0};
  std::mutex writer_mu;
  std::condition_variable writer_cv;
  bool writer_stop = false;  // guarded by writer_mu

  auto client = [&](size_t s) {
    ClientLog& log = out.clients[s];
    Rng rng(in.client_seed(s));
    std::vector<QuerySpec> specs(w.batch);
    std::vector<ServiceRequest> batch;
    batch.reserve(w.batch);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    while (Clock::now() < deadline) {
      batch.clear();
      for (QuerySpec& spec : specs) {
        spec = in.Draw(rng);
        batch.push_back(in.ToRequest(spec));
      }
      const Clock::time_point t0 = Clock::now();
      std::vector<Result<ServiceAnswer>> results =
          service.AnswerBatch(sessions[s], batch);
      const Clock::time_point t1 = Clock::now();
      const uint64_t delivered_before = log.delivered;
      BatchSubmit submit{SteadyNs(t0), ~uint64_t{0}, 0};
      for (size_t i = 0; i < results.size(); ++i) {
        ++log.attempted;
        if (!results[i].ok()) {
          ++log.failed;
          if (log.first_error.empty()) {
            log.first_error = results[i].status().ToString();
          }
          continue;
        }
        const ServiceAnswer& a = *results[i];
        ++log.delivered;
        submit.first_seq = std::min(submit.first_seq, a.seq);
        submit.last_seq = std::max(submit.last_seq, a.seq);
        if (Mix(sessions[s], a.seq) % replay_every == 0) {
          log.sampled.push_back(
              {s, a.seq, a.generation, specs[i], a.cache_hit, a.count,
               a.histogram ? a.histogram->counts() : std::vector<double>{}});
        }
      }
      log.batches.push_back(
          {std::chrono::duration<double>(t1 - out.start).count(), Ms(t1 - t0),
           static_cast<uint32_t>(log.delivered - delivered_before)});
      if (traced && log.delivered > delivered_before) {
        log.submits.push_back(submit);
      }
      if (w.concurrent_ingest &&
          (batches_done.fetch_add(1) + 1) % kBatchesPerIngest == 0) {
        std::lock_guard<std::mutex> lock(writer_mu);
        writer_cv.notify_one();
      }
    }
    log.end = Clock::now();
  };

  auto writer = [&] {
    const uint64_t first = ingest_target.current_generation() + 1;
    const auto pace = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds / kPacedIngests));
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    Clock::time_point tick = out.start;
    for (uint64_t g = first;; ++g) {
      const RowBatch batch = in.IngestBatch(g);
      {
        std::unique_lock<std::mutex> lock(writer_mu);
        if (w.concurrent_ingest) {
          writer_cv.wait(lock, [&] {
            return writer_stop ||
                   batches_done.load() >= kBatchesPerIngest * (g - first + 1);
          });
        } else {
          tick += pace;
          writer_cv.wait_until(lock, tick, [&] { return writer_stop; });
        }
        if (writer_stop) return;
      }
      const Clock::time_point t0 = Clock::now();
      const Result<uint64_t> published = ingest_target.Ingest(batch);
      out.ingest_ms.push_back(Ms(Clock::now() - t0));
      if (!published.ok() || *published != g) {
        ++out.ingest_failed;
        out.ingest_error = published.ok() ? "unexpected generation"
                                          : published.status().ToString();
        return;
      }
      if (traced && w.concurrent_ingest) {
        out.snapshots.push_back(service.current_snapshot());
      }
    }
  };

  std::vector<std::thread> threads;
  for (size_t s = 0; s < kSessions; ++s) threads.emplace_back(client, s);
  std::thread writer_thread(writer);

  out.start = Clock::now();
  deadline = out.start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(seconds));
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  Clock::time_point end = out.start;
  for (const ClientLog& log : out.clients) end = std::max(end, log.end);
  out.wall_s = std::chrono::duration<double>(end - out.start).count();
  {
    std::lock_guard<std::mutex> lock(writer_mu);
    writer_stop = true;
  }
  writer_cv.notify_one();
  writer_thread.join();
  return out;
}

// Steady-state statistics of a phase: it is cut into kWindows equal windows
// and each statistic is the median of its per-window values, so a stall on a
// shared host moves one window rather than the result. Batches completing
// after the deadline fall outside every window. The tail is p90: the sparsest
// workload (fresh_scans) completes ~95 batches per one-second window, and
// p90 is the highest percentile with ten of them beyond it.
constexpr size_t kWindows = 10;

struct PhaseStats {
  double qps = 0.0;
  double batch_p50_ms = 0.0;
  double batch_p90_ms = 0.0;
  std::vector<double> window_qps;
};

PhaseStats Summarize(const Phase& phase, double seconds) {
  const double width = seconds / kWindows;
  std::vector<double> delivered(kWindows, 0.0);
  std::vector<std::vector<double>> ms(kWindows);
  for (const ClientLog& log : phase.clients) {
    for (const BatchRecord& b : log.batches) {
      const size_t w = static_cast<size_t>(b.end_s / width);
      if (w >= kWindows) continue;
      delivered[w] += b.delivered;
      ms[w].push_back(b.ms);
    }
  }
  PhaseStats out;
  std::vector<double> p50, p90;
  for (size_t w = 0; w < kWindows; ++w) {
    out.window_qps.push_back(delivered[w] / width);
    p50.push_back(Percentile(ms[w], 50));
    p90.push_back(Percentile(ms[w], 90));
  }
  out.qps = Percentile(out.window_qps, 50);
  out.batch_p50_ms = Percentile(p50, 50);
  out.batch_p90_ms = Percentile(p90, 50);
  return out;
}

// ------------------------------------------------------- serial replay

// The reference a serial replay checks answers against: the dataset rebuilt
// from its seed as generation 0 plus ingest batches 1..g, classified by
// Policy::NonSensitiveRowMask, with what the workload's answers need
// accumulated batch by batch — matching rows per hot clause, (x, x_ns) per
// histogram request shape, and an age × zip grid that answers any fresh
// count. None of it touches the service's tables, masks, caches or sharded
// scans, and the grid answers fresh counts without a predicate at all.
class Oracle {
 public:
  Oracle(const Inputs& in, const Policy& policy) : in_(in), policy_(policy) {
    const Workload& w = in.workload();
    for (size_t e = 0; e < w.mix.size(); ++e) {
      switch (w.mix[e].kind) {
        case Kind::kHotCount:
          hot_all_.assign(kHotClauses, 0);
          hot_ns_.assign(kHotClauses, 0);
          break;
        case Kind::kFreshCount:
          grid_all_.assign(kAges * kZips, 0);
          grid_ns_.assign(kAges * kZips, 0);
          break;
        case Kind::kHistogram:
          for (size_t c = 0; c < kHistClauses; ++c) {
            QuerySpec spec;
            spec.entry = static_cast<uint8_t>(e);
            spec.clause = static_cast<uint8_t>(c);
            const size_t bins = w.mix[e].age_bins ? 100 : 4096;
            hist_.emplace(Key(spec),
                          std::make_pair(Histogram(bins), Histogram(bins)));
          }
          break;
      }
    }
    Add(CensusRows(in.rows(), in.table_seed()));
  }

  /// Extends the rebuild to `generation` (generations only move forward).
  void AdvanceTo(uint64_t generation) {
    while (generation_ < generation) Add(in_.IngestBatch(++generation_));
  }

  bool valid() const { return valid_; }

  /// (all rows, non-sensitive rows) matching a count's WHERE clause.
  std::pair<uint64_t, uint64_t> Count(const QuerySpec& spec) const {
    if (in_.workload().mix[spec.entry].kind == Kind::kHotCount) {
      return {hot_all_[spec.clause], hot_ns_[spec.clause]};
    }
    uint64_t all = 0;
    uint64_t ns = 0;
    for (int32_t a = spec.age_lo; a <= spec.age_lo + spec.age_span; ++a) {
      for (size_t z = static_cast<size_t>(spec.zip_lo); z < kZips; ++z) {
        all += grid_all_[a * kZips + z];
        ns += grid_ns_[a * kZips + z];
      }
    }
    return {all, ns};
  }

  /// (x, x_ns) of a histogram request.
  const std::pair<Histogram, Histogram>& Hist(const QuerySpec& spec) const {
    return hist_.at(Key(spec));
  }

 private:
  static constexpr size_t kAges = 100;
  static constexpr size_t kZips = 10000;

  static std::pair<uint8_t, uint8_t> Key(const QuerySpec& spec) {
    return {spec.entry, spec.clause};
  }

  void Add(const Table& rows) {
    const RowMask ns = policy_.NonSensitiveRowMask(rows);
    for (size_t i = 0; i < hot_all_.size(); ++i) {
      RowMask m = CompiledPredicate::Compile(HotClause(i), rows.schema())
                      ->EvalMask(rows);
      hot_all_[i] += m.Count();
      m.AndWith(ns);
      hot_ns_[i] += m.Count();
    }
    for (auto& [key, xs] : hist_) {
      QuerySpec spec;
      spec.entry = key.first;
      spec.clause = key.second;
      const ServiceRequest request = in_.ToRequest(spec);
      const HistogramQuery& q = std::get<HistogramRequest>(request).query;
      const Histogram x = *ComputeHistogram(rows, q);
      const Histogram xns = *ComputeHistogramMasked(rows, q, ns);
      for (size_t b = 0; b < x.size(); ++b) {
        xs.first[b] += x[b];
        xs.second[b] += xns[b];
      }
    }
    if (!grid_all_.empty()) {
      const ChunkedColumn<int64_t>& age = **rows.Int64ColumnByName("age");
      const ChunkedColumn<int64_t>& zip = **rows.Int64ColumnByName("zip");
      for (size_t r = 0; r < rows.num_rows(); ++r) {
        if (age[r] < 0 || age[r] >= static_cast<int64_t>(kAges) ||
            zip[r] < 0 || zip[r] >= static_cast<int64_t>(kZips)) {
          valid_ = false;
          continue;
        }
        const size_t cell = static_cast<size_t>(age[r]) * kZips +
                            static_cast<size_t>(zip[r]);
        ++grid_all_[cell];
        if (ns.Test(r)) ++grid_ns_[cell];
      }
    }
  }

  const Inputs& in_;
  const Policy& policy_;
  uint64_t generation_ = 0;
  bool valid_ = true;
  std::vector<uint64_t> hot_all_, hot_ns_;
  std::vector<uint32_t> grid_all_, grid_ns_;
  std::map<std::pair<uint8_t, uint8_t>, std::pair<Histogram, Histogram>>
      hist_;
};

struct SerialReplayResult {
  size_t checked = 0;
  size_t mismatched = 0;
  double rel_l1 = 0.0;
};

// Recomputes every sampled answer from the Oracle and its replay key, and
// scores it against the true all-rows answer (the paper's utility measure).
// The error is a stratified mean: averaged per (mix entry, clause), then over
// each entry's clauses, then across entries by mix weight, so which clauses
// a run happened to sample does not move it.
SerialReplayResult SerialReplay(const Inputs& in, uint64_t root_seed,
                                const std::vector<QueryService::SessionId>&
                                    sessions,
                                std::vector<Sampled> sampled,
                                bool inject_divergence) {
  SerialReplayResult out;
  if (sampled.empty()) return out;
  std::sort(sampled.begin(), sampled.end(),
            [](const Sampled& a, const Sampled& b) {
              return std::tie(a.generation, a.session, a.seq) <
                     std::tie(b.generation, b.session, b.seq);
            });
  if (inject_divergence) {
    Sampled& s = sampled.front();
    double& v = s.histogram.empty() ? s.count : s.histogram.front();
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    bits ^= 1;
    std::memcpy(&v, &bits, sizeof bits);
  }

  const Policy policy = BenchPolicy();
  OsdpEngine::Options eopts;
  eopts.total_epsilon = 1e12;
  eopts.seed = in.engine_seed();
  // RunMechanism reads only the options, so a tiny table serves; no pool,
  // which makes this the serial reference.
  const OsdpEngine engine =
      *OsdpEngine::Create(CensusRows(64, 7), policy, eopts);

  const Workload& w = in.workload();
  Oracle oracle(in, policy);
  std::map<std::pair<uint8_t, uint8_t>, std::pair<double, size_t>> strata;
  for (const Sampled& s : sampled) {
    oracle.AdvanceTo(s.generation);
    const MixEntry& e = w.mix[s.spec.entry];
    Rng rng(QueryService::QuerySeed(root_seed, sessions[s.session], s.seq,
                                    s.generation));
    double err = 0.0;
    double truth = 0.0;
    bool same = false;
    if (e.kind != Kind::kHistogram) {
      const auto [all, ns] = oracle.Count(s.spec);
      const double released = static_cast<double>(ns) +
                              SampleOneSidedLaplace(rng, 1.0 / kEpsilon);
      same = SameBits(released, s.count);
      truth = static_cast<double>(all);
      err = std::abs(released - truth);
    } else {
      const auto& [x, xns] = oracle.Hist(s.spec);
      const Result<Histogram> released =
          engine.RunMechanism(x, xns, kEpsilon, e.mech, rng);
      same = released.ok() && SameBits(released->counts(), s.histogram);
      if (released.ok()) {
        for (size_t b = 0; b < x.size(); ++b) {
          err += std::abs((*released)[b] - x[b]);
          truth += x[b];
        }
      }
    }
    ++out.checked;
    if (!same) ++out.mismatched;
    auto& [sum, n] = strata[{s.spec.entry, s.spec.clause}];
    sum += err / std::max(truth, 1.0);
    ++n;
  }
  if (!oracle.valid()) ++out.mismatched;

  double weighted = 0.0;
  double weights = 0.0;
  for (size_t e = 0; e < w.mix.size(); ++e) {
    double entry_sum = 0.0;
    size_t entry_strata = 0;
    for (const auto& [key, stratum] : strata) {
      if (key.first != e) continue;
      entry_sum += stratum.first / static_cast<double>(stratum.second);
      ++entry_strata;
    }
    if (entry_strata == 0) continue;
    weighted += w.mix[e].weight * entry_sum / entry_strata;
    weights += w.mix[e].weight;
  }
  out.rel_l1 = weights > 0.0 ? weighted / weights : 0.0;
  return out;
}

// ------------------------------------------------------------- output

struct Metric {
  double value;
  std::string unit;
};

class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  void Check(const std::string& name, bool ok, const std::string& detail) {
    checks_.push_back({name, ok, detail});
    if (!ok) {
      correct_ = false;
      std::fprintf(stderr, "CHECK FAILED: %s: %s\n", name.c_str(),
                   detail.c_str());
    }
  }
  bool correct() const { return correct_; }

  std::string ToJson(const std::string& header) const {
    std::ostringstream os;
    os << "{" << header << ", \"correct\": " << (correct_ ? "true" : "false")
       << ", \"checks\": {";
    for (size_t i = 0; i < checks_.size(); ++i) {
      os << (i ? ", " : "") << Quote(checks_[i].name) << ": {\"ok\": "
         << (checks_[i].ok ? "true" : "false")
         << ", \"detail\": " << Quote(checks_[i].detail) << "}";
    }
    os << "}, \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics_) {
      os << (first ? "" : ", ") << Quote(name)
         << ": {\"value\": " << Number(m.value)
         << ", \"unit\": " << Quote(m.unit) << "}";
      first = false;
    }
    os << "}}";
    return os.str();
  }

  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

  static std::string Number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  }

 private:
  struct CheckResult {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<CheckResult> checks_;
  bool correct_ = true;
};

// ---------------------------------------------------------------- args

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = -1.0;  // default depends on --smoke
  bool traced = false;
  bool smoke = false;
  bool inject_divergence = false;
  std::string json_path;
  std::string label;
};

// Flags are --name or --name=value.
bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const size_t eq = flag.find('=');
    const std::string arg = flag.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : flag.substr(eq + 1);
    char* end = nullptr;
    if (arg == "--traced") {
      args->traced = true;
    } else if (arg == "--smoke") {
      args->smoke = true;
    } else if (arg == "--inject-divergence") {
      args->inject_divergence = true;
    } else if (arg == "--workload" && !value.empty()) {
      args->workload = value;
    } else if (arg == "--seed" && !value.empty()) {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') {
        *error = "bad --seed " + value;
        return false;
      }
    } else if (arg == "--seconds" && !value.empty()) {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0) ||
          args->seconds > 600.0) {
        *error = "bad --seconds " + value;
        return false;
      }
    } else if (arg == "--json" && !value.empty()) {
      args->json_path = value;
    } else if (arg == "--label" && !value.empty()) {
      args->label = value;
    } else {
      *error = "unknown or incomplete argument " + flag;
      return false;
    }
  }
  if (args->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "%s\nusage: %s --workload=NAME [--seed=N] "
                 "[--seconds=S] [--traced] [--smoke] [--json=PATH] "
                 "[--label=TEXT] [--inject-divergence]\n",
                 error.c_str(), argv[0]);
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : Workloads()) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const size_t divisor = args.smoke ? kSmokeDivisor : 1;
  if (args.seconds <= 0.0) args.seconds = args.smoke ? 0.2 : 10.0;

  const Inputs in(*workload, args.seed, workload->rows / divisor);
  const Policy policy = BenchPolicy();
  Report report;

  const Clock::time_point t_inputs = Clock::now();
  const Table table = CensusRows(in.rows(), in.table_seed());
  const std::vector<ServiceRequest> warm = in.WarmRequests();
  std::fprintf(stderr, "[%s] seed %llu: %zu rows generated in %.2fs\n",
               workload->name, static_cast<unsigned long long>(args.seed),
               table.num_rows(),
               std::chrono::duration<double>(Clock::now() - t_inputs).count());

  ThreadPool pool(1);
  OsdpEngine::Options eopts;
  eopts.total_epsilon = 1e12;
  eopts.seed = in.engine_seed();
  QueryService::Options sopts;
  sopts.pool = &pool;
  sopts.per_session_epsilon = 1e11;
  sopts.seed = in.service_seed();
  sopts.metrics_enabled = args.traced;
  if (args.traced) sopts.trace_ring_capacity = 65536;

  // Set-up: engine + service + one warm pass over the repeated clauses,
  // several times; the last service is the one measured.
  std::unique_ptr<QueryService> service;
  std::vector<double> setup_s;
  bool warm_ok = true;
  for (int i = 0; i < kSetups; ++i) {
    service.reset();
    Table data = table;  // shares chunks; not part of set-up time
    const Clock::time_point t0 = Clock::now();
    Result<OsdpEngine> engine =
        OsdpEngine::Create(std::move(data), policy, eopts);
    if (!engine.ok()) {
      std::fprintf(stderr, "engine: %s\n", engine.status().ToString().c_str());
      return 1;
    }
    Result<std::unique_ptr<QueryService>> created =
        QueryService::Create(std::move(engine).ValueOrDie(), sopts);
    if (!created.ok()) {
      std::fprintf(stderr, "service: %s\n",
                   created.status().ToString().c_str());
      return 1;
    }
    service = std::move(created).ValueOrDie();
    // One query per batch: the pass runs serially, so its time does not
    // depend on whether the pool worker joins in.
    const QueryService::SessionId warm_session = service->OpenSession("warm");
    for (const ServiceRequest& request : warm) {
      warm_ok &= service->AnswerBatch(warm_session, {request}).front().ok();
    }
    setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
  }
  report.Check("warm_pass", warm_ok, std::to_string(warm.size()) + " counts");
  const double rss_mib = ReadVmHwmMib();

  // The ingest target of the workloads whose reads must keep their cache.
  std::unique_ptr<QueryService> side;
  if (!workload->concurrent_ingest) {
    Table data = table;
    side = std::move(*QueryService::Create(
        std::move(*OsdpEngine::Create(std::move(data), policy, eopts)), sopts));
  }
  QueryService& ingest_target = side != nullptr ? *side : *service;

  std::vector<QueryService::SessionId> sessions;
  for (size_t s = 0; s < kSessions; ++s) {
    sessions.push_back(service->OpenSession("analyst" + std::to_string(s)));
  }
  const MaskCache::Stats cache0 = service->cache_stats();
  const ThreadPool::Stats pool0 = pool.stats();
  const double worker_busy0 = WorkerBusyNs(pool);
  const double heap0 = HeapBytes();

  Phase phase = RunPhase(*service, ingest_target, in, sessions, args.seconds,
                         args.smoke ? 1 : kReplayEvery, args.traced);

  const double heap1 = HeapBytes();
  const ThreadPool::Stats pool1 = pool.stats();
  const double worker_busy1 = WorkerBusyNs(pool);
  const MaskCache::Stats cache1 = service->cache_stats();

  uint64_t attempted = 0;
  uint64_t delivered = 0;
  uint64_t failed = 0;
  size_t batches = 0;
  std::vector<Sampled> sampled;
  for (ClientLog& log : phase.clients) {
    attempted += log.attempted;
    delivered += log.delivered;
    failed += log.failed;
    batches += log.batches.size();
    for (Sampled& s : log.sampled) sampled.push_back(std::move(s));
    if (!log.first_error.empty()) {
      std::fprintf(stderr, "first failure: %s\n", log.first_error.c_str());
    }
  }

  // The books: one ledger entry per delivery, ε spent == ε delivered.
  {
    const uint64_t deliveries = delivered + warm.size();
    const size_t ledger = service->ledger().size();
    report.Check("ledger_entries", ledger == deliveries,
                 std::to_string(ledger) + " entries, " +
                     std::to_string(deliveries) + " deliveries");
    double expected = 0.0;
    for (uint64_t i = 0; i < deliveries; ++i) expected += kEpsilon;
    const obs::MetricsSnapshot scrape = service->MetricsSnapshot();
    const obs::MetricsSnapshot::GaugeValue* spent =
        scrape.FindGauge("budget.service_spent_eps");
    const double service_spent = spent != nullptr ? spent->value : -1.0;
    report.Check("service_epsilon",
                 std::abs(service_spent - expected) <= 1e-9 * expected,
                 "spent " + std::to_string(service_spent) + ", delivered " +
                     std::to_string(expected));
    for (size_t s = 0; s < kSessions; ++s) {
      double session_expected = 0.0;
      for (uint64_t i = 0; i < phase.clients[s].delivered; ++i) {
        session_expected += kEpsilon;
      }
      const double session_spent =
          sopts.per_session_epsilon - *service->session_remaining(sessions[s]);
      // The remaining budget is 1e11 minus spent, so compare to within a
      // few ulps of 1e11.
      report.Check("session_epsilon." + std::to_string(s),
                   std::abs(session_spent - session_expected) <= 1e-3,
                   "spent " + std::to_string(session_spent) + ", delivered " +
                       std::to_string(session_expected));
    }
  }
  report.Check("no_failed_queries", failed == 0,
               std::to_string(failed) + " of " + std::to_string(attempted));

  report.Check("ingests", phase.ingest_failed == 0 && !phase.ingest_ms.empty(),
               std::to_string(phase.ingest_ms.size()) + " ingests, " +
                   std::to_string(phase.ingest_failed) + " failed " +
                   phase.ingest_error);
  attempted += phase.ingest_ms.size();
  failed += phase.ingest_failed;

  const PhaseStats stats = Summarize(phase, args.seconds);
  report.Set("qps", stats.qps, "queries/s");
  report.Set("batch_p50_ms", stats.batch_p50_ms, "ms");
  report.Set("batch_p90_ms", stats.batch_p90_ms, "ms");
  report.Set("ingest_p50_ms", Percentile(phase.ingest_ms, 50), "ms");
  report.Set("ingest_p90_ms", Percentile(phase.ingest_ms, 90), "ms");
  report.Set("setup_s", Percentile(setup_s, 50), "s");
  report.Set("rss_mib", rss_mib, "MiB");

  const double lookups =
      static_cast<double>((cache1.hits - cache0.hits) +
                          (cache1.misses - cache0.misses));
  report.Set("runtime.cache_hit_ratio",
             lookups > 0 ? (cache1.hits - cache0.hits) / lookups : 0.0,
             "fraction");
  report.Set("runtime.cache_evictions_per_query",
             static_cast<double>(cache1.evictions - cache0.evictions) /
                 std::max<double>(delivered, 1),
             "1/query");
  report.Set("service.heap_growth_bytes_per_query",
             (heap1 - heap0) / std::max<double>(delivered, 1), "B/query");

  std::fprintf(stderr,
               "[%s] %.2fs measured: %llu queries in %zu batches, %.1f q/s, "
               "batch p50 %.3f ms p90 %.3f ms, %zu ingests (p50 %.3f ms), "
               "set-up %.3fs, VmHWM %.0f MiB\n  q/s by window:",
               workload->name, phase.wall_s,
               static_cast<unsigned long long>(delivered), batches, stats.qps,
               stats.batch_p50_ms, stats.batch_p90_ms, phase.ingest_ms.size(),
               Percentile(phase.ingest_ms, 50), Percentile(setup_s, 50),
               rss_mib);
  for (double q : stats.window_qps) std::fprintf(stderr, " %.0f", q);
  std::fprintf(stderr, "\n");

  if (args.traced) {
    // The scrape's stage latencies; ingest stages come from whichever
    // service the writer ingested into.
    auto scraped_us = [&report](const obs::MetricsSnapshot& from,
                                const std::string& stage) {
      const obs::MetricsSnapshot::HistogramValue* h =
          from.FindHistogram(stage + "_ns");
      report.Set(stage + "_us_p50", h != nullptr ? h->p50_ns / 1e3 : 0.0,
                 "us");
      report.Set(stage + "_us_p99", h != nullptr ? h->p99_ns / 1e3 : 0.0,
                 "us");
    };
    const obs::MetricsSnapshot scrape = service->MetricsSnapshot();
    for (const char* stage :
         {"service.query", "service.validate", "service.reserve",
          "service.cache_lookup", "service.scan", "service.mechanism",
          "pool.chunk"}) {
      scraped_us(scrape, stage);
    }
    const obs::MetricsSnapshot ingest_scrape = ingest_target.MetricsSnapshot();
    for (const char* stage : {"ingest.append", "ingest.publish"}) {
      scraped_us(ingest_scrape, stage);
    }
    const double utilization =
        (worker_busy1 - worker_busy0) /
        (static_cast<double>(pool.num_threads()) * phase.wall_s * 1e9);
    report.Check("pool_utilization", utilization >= 0.0 && utilization <= 1.0,
                 std::to_string(utilization));
    report.Set("pool.utilization", utilization, "fraction");
    report.Set("pool.chunks_per_query",
               static_cast<double>(pool1.chunks_executed -
                                   pool0.chunks_executed) /
                   std::max<double>(delivered, 1),
               "1/query");

    // Layered replay of an evenly spaced subset of the sampled answers.
    std::vector<Sampled> targets = sampled;
    std::sort(targets.begin(), targets.end(),
              [](const Sampled& a, const Sampled& b) {
                return std::tie(a.session, a.seq) < std::tie(b.session, b.seq);
              });
    if (targets.size() > kLayeredSample) {
      std::vector<Sampled> spaced;
      for (size_t i = 0; i < kLayeredSample; ++i) {
        spaced.push_back(targets[i * targets.size() / kLayeredSample]);
      }
      targets = std::move(spaced);
    }
    OsdpEngine mech_engine =
        *OsdpEngine::Create(CensusRows(64, 7), policy, eopts);
    mech_engine.set_mech_pool(&pool);
    LayeredReplay replay(&mech_engine, policy, sopts.seed, &pool,
                         sopts.mask_cache_bytes);
    if (cache1.evictions > cache0.evictions) {
      replay.PrefillCache(sopts.mask_cache_bytes / (in.rows() / 8 + 1) + 1,
                          in.rows());
    }
    // The service's own traces. A trace's total_ns starts in Execute, after
    // admission, validation and reservation, whose stamps it also carries, so
    // its stages always sum to more than total_ns. A query's service time is
    // therefore taken from its batch's submission, as service.query_ns is:
    // submit → span start + total_ns. Its unattributed share is the part of
    // that time no stage covers: the reserve_mu_ wait, and waiting while the
    // batch's other queries validate, reserve and execute.
    std::vector<double> trace_unattributed;
    size_t traces_inconsistent = 0;
    // (session, seq) → the service's time in the calls the replay repeats:
    // validate, reserve, and the span's total_ns.
    std::map<std::pair<uint64_t, uint64_t>, uint64_t> service_ns;
    for (const obs::Trace& trace : service->trace_ring().Snapshot()) {
      if (trace.status_code != 0) continue;
      uint64_t staged = 0;
      uint64_t own = trace.total_ns;
      for (size_t e = 0; e < trace.num_events; ++e) {
        staged += trace.events[e].duration_ns;
        if (trace.events[e].stage == obs::Stage::kValidate ||
            trace.events[e].stage == obs::Stage::kReserve) {
          own += trace.events[e].duration_ns;
        }
      }
      service_ns[{trace.session, trace.seq}] = own;
      const auto session = std::find(sessions.begin(), sessions.end(),
                                     trace.session);
      if (session == sessions.end()) continue;  // the warm-pass session
      const std::vector<BatchSubmit>& submits =
          phase.clients[session - sessions.begin()].submits;
      auto batch = std::upper_bound(
          submits.begin(), submits.end(), trace.seq,
          [](uint64_t seq, const BatchSubmit& b) { return seq < b.first_seq; });
      if (batch == submits.begin() || trace.seq > (--batch)->last_seq) {
        ++traces_inconsistent;
        continue;
      }
      const uint64_t end_ns = trace.start_ns + trace.total_ns;
      const double query_ns = static_cast<double>(end_ns - batch->submit_ns);
      if (end_ns <= batch->submit_ns || staged > end_ns - batch->submit_ns) {
        ++traces_inconsistent;
        continue;
      }
      trace_unattributed.push_back(1.0 - static_cast<double>(staged) /
                                             query_ns);
    }
    report.Check("trace_stages_within_query_time",
                 traces_inconsistent == 0 && !trace_unattributed.empty(),
                 std::to_string(trace_unattributed.size()) + " traces, " +
                     std::to_string(traces_inconsistent) + " inconsistent");
    const double unattributed = Percentile(trace_unattributed, 50);
    report.Set("obs.unattributed_frac", unattributed, "fraction");

    size_t layered_mismatch = 0;
    uint64_t matched_service_ns = 0;
    uint64_t matched_replay_ns = 0;
    for (const Sampled& s : targets) {
      if (s.generation >= phase.snapshots.size()) {
        ++layered_mismatch;
        continue;
      }
      ReplayTarget t{in.ToRequest(s.spec), phase.snapshots[s.generation],
                     sessions[s.session], s.seq, s.cache_hit, s.count,
                     s.histogram};
      const uint64_t before = replay.total_ns();
      if (!replay.Replay(t)) ++layered_mismatch;
      auto it = service_ns.find({sessions[s.session], s.seq});
      if (it != service_ns.end()) {
        matched_service_ns += it->second;
        matched_replay_ns += replay.total_ns() - before;
      }
      replay.ProbeScan(in.Where(s.spec), *t.snapshot);
    }
    report.Check("layered_replay_bit_identical",
                 layered_mismatch == 0 && replay.replayed() > 0,
                 std::to_string(replay.replayed()) + " replayed, " +
                     std::to_string(layered_mismatch) + " differ");
    for (const auto& [name, m] : replay.Summary()) {
      report.Set(name, m.value, m.unit);
    }
    const double replay_over_service =
        matched_service_ns == 0 ? 0.0
                                : static_cast<double>(matched_replay_ns) /
                                      static_cast<double>(matched_service_ns);
    report.Set("obs.replay_over_service", replay_over_service, "ratio");
    const double glue = static_cast<double>(replay.glue_ns()) /
                        std::max<double>(replay.total_ns(), 1);
    report.Check("replay_glue_share",
                 glue <= (args.smoke ? kMaxGlueSmoke : kMaxGlue),
                 std::to_string(glue));

    // The write path's layers, timed on a builder outside the service.
    {
      const SnapshotPtr base = phase.snapshots.front();
      TableBuilder builder = *TableBuilder::FromSnapshot(*base, policy);
      SnapshotStore store(base);
      std::vector<double> append_us, snapshot_us, publish_us;
      size_t append_failures = 0;
      for (uint64_t g = 1; g <= kSideBuilderBatches; ++g) {
        const RowBatch batch = in.IngestBatch(g);
        const uint64_t t0 = obs::NowNs();
        const Status appended = builder.Append(batch);
        const uint64_t t1 = obs::NowNs();
        SnapshotPtr next = builder.BuildSnapshot(g);
        const uint64_t t2 = obs::NowNs();
        store.Publish(std::move(next));
        const uint64_t t3 = obs::NowNs();
        if (!appended.ok()) ++append_failures;
        append_us.push_back((t1 - t0) / 1e3);
        snapshot_us.push_back((t2 - t1) / 1e3);
        publish_us.push_back((t3 - t2) / 1e3);
      }
      report.Set("data.append_us", Percentile(append_us, 50), "us");
      report.Set("data.snapshot_us", Percentile(snapshot_us, 50), "us");
      report.Set("data.publish_us", Percentile(publish_us, 50), "us");
      report.Check("side_builder_appends", append_failures == 0,
                   std::to_string(append_failures) + " failed");
    }

    // The attribution table.
    std::fprintf(stderr, "\n[%s] layered replay of %zu delivered requests\n",
                 workload->name, replay.replayed());
    std::fprintf(stderr, "  %-22s %12s %8s\n", "layer", "us/query", "share");
    const double n = std::max<double>(replay.replayed(), 1);
    const double total = std::max<double>(replay.total_ns(), 1);
    for (size_t l = 0; l < kNumLayers; ++l) {
      std::fprintf(stderr, "  %-22s %12.2f %7.1f%%\n", LayerName(l),
                   replay.layer_ns(l) / 1e3 / n,
                   100.0 * replay.layer_ns(l) / total);
    }
    std::fprintf(stderr, "  %-22s %12.2f %7.1f%%\n", "glue",
                 replay.glue_ns() / 1e3 / n, 100.0 * glue);
    std::fprintf(stderr, "  %-22s %12.2f %7.1f%%\n", "total", total / 1e3 / n,
                 100.0);
    std::fprintf(stderr,
                 "  replay / service time on %s matched traces: %.2f\n"
                 "  service time outside named stages (median of %zu "
                 "traces): %.1f%%\n\n",
                 matched_service_ns == 0 ? "no" : "the", replay_over_service,
                 trace_unattributed.size(), 100.0 * unattributed);
  }

  // The correctness replay runs on a from-scratch rebuild, after the service
  // and its generations are gone.
  const uint64_t root_seed = sopts.seed;
  service.reset();
  side.reset();
  phase.snapshots.clear();
  const SerialReplayResult serial = SerialReplay(
      in, root_seed, sessions, std::move(sampled), args.inject_divergence);
  report.Check("serial_replay_bit_identical",
               serial.mismatched == 0 && serial.checked > 0,
               std::to_string(serial.checked) + " replayed, " +
                   std::to_string(serial.mismatched) + " differ");
  report.Set("answer_rel_l1", serial.rel_l1, "fraction");

  std::ostringstream header;
  header << "\"workload\": " << Report::Quote(workload->name)
         << ", \"seed\": " << args.seed
         << ", \"seconds\": " << Report::Number(args.seconds)
         << ", \"traced\": " << (args.traced ? "true" : "false")
         << ", \"smoke\": " << (args.smoke ? "true" : "false")
         << ", \"label\": " << Report::Quote(args.label)
         << ", \"hardware_concurrency\": "
         << std::thread::hardware_concurrency()
         << ", \"build_type\": " << Report::Quote(OSDP_BENCH_BUILD_TYPE)
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed;
  const std::string json = report.ToJson(header.str());
  if (!args.json_path.empty()) {
    std::ofstream(args.json_path) << json << "\n";
  }
  std::printf("%s\n", json.c_str());
  return report.correct() ? 0 : 1;
}
