// QueryService: the concurrent, multi-session query-answering front-end over
// an OsdpEngine's dataset — the paper's "online setting" (Section 7) at
// service scale, over a *streaming* dataset. It is the only code that spends
// ε: it keeps the engine's policy and budget, runs the mechanism catalog
// (src/mech/histogram_mechanism.h) on its own pool, and charges every count,
// histogram and OsdpRR sample release here. A serial caller is a one-session
// service over an inline ThreadPool(0).
//
// Many analyst sessions submit batches of predicate-count, histogram and
// sample queries concurrently while a writer appends row batches through
// Ingest(). The service runs every scan sharded across the thread pool
// (src/runtime/parallel_scan.h) and routes every charge through two budgets —
// the analyst's session budget and the dataset's service-wide lifetime
// budget, each just (total, spent) — plus a thread-safe composition ledger,
// the one per-release record: one entry per delivered answer, from which the
// composed (P, ε)-OSDP guarantee of everything released so far follows
// (Theorem 3.3).
//
// Streaming model — snapshot isolation:
//
//   * Ingest(RowBatch) appends rows as the next *generation*: the policy
//     mask is extended incrementally over just the new rows, a complete
//     immutable Snapshot (table + mask + generation id) is built, and it is
//     published by atomic pointer swap (src/data/snapshot_store.h). The
//     snapshot shares the builder's chunk spines and mask blocks (chunked
//     copy-on-write storage, src/data/chunk_spine.h), so cutting it is O(1)
//     and an Ingest costs O(batch) regardless of how many rows have
//     accumulated.
//   * Every AnswerBatch captures the current snapshot once, at submission,
//     and answers the whole batch against it — a query submitted before a
//     swap never observes rows or mask bits from a later generation, and a
//     query in flight keeps its generation alive however many swaps happen
//     under it. Each answer reports the generation it was computed against,
//     and its ledger entry records it with the ε and the "<kind> (<analyst>)"
//     label (the audit trail names the exact sensitive/non-sensitive split
//     each ε was spent under).
//
// Result caching — the MaskCache (src/runtime/mask_cache.h):
//
//   * The deterministic stages of every filtered query — the WHERE mask and
//     the exact aggregates over it (a count's |WHERE ∧ x_ns|, a histogram's
//     x and/or x_ns) — are served through a generation-aware LRU keyed by
//     the compiled predicate's canonical fingerprint, so identical
//     (predicate, generation) pairs across analyst sessions cost one scan
//     and one aggregation each, and afterwards only their noise. Caching is
//     privacy-neutral: the budget is charged per release either way, and the
//     noisy stage always draws from the query's own seed stream. Hit and
//     miss answers are bit-identical — the property tests/mask_cache_test.cc
//     is built around. After an ingest, a recurring clause's first query
//     extends its previous generation's mask and aggregates by scanning only
//     the appended rows. ServiceAnswer.cache_hit and cache_stats() expose the
//     behavior to tests and benches; an extension is a miss to the analyst,
//     and only the operator's cache.extensions counter tells it apart.
//   * Every batch looks its WHERE clauses up together, after reservation
//     and before execution (MaskCache::LookupMany); a lone clause is a
//     batch lookup of one. The misses share one chunk-at-a-time scan pass
//     per starting row (ParallelEvalMasksInto), so a chunk's cells are read
//     from memory once for every new clause of the batch. Answers, seqs, hit
//     flags and cache counters equal those of the same requests sent one per
//     batch. A failed lookup fails only the slots it touched, at their
//     Execute. Sharing stays inside one batch, so inside one session.
//
// Execution — who runs which slot:
//
//   * Every scan and every AND + popcount pass shards over the pool,
//     whichever thread starts it. A batch holding a histogram or a sample
//     then spreads its slots over the pool, one slot per chunk: their
//     mechanisms run serially inside the slot (a d=4096 DAWA release is
//     about a millisecond). A batch whose every reserved slot is a count
//     runs its slots on the calling thread, as one chunk: its scans already
//     ran in the batch lookup, and a count past them is a memoized read (or
//     one pooled AND + popcount) plus one draw, microseconds that a task
//     hand-off to a worker would cost more than. The choice reads only the
//     request kinds, never data, load or timing, and answers do not depend
//     on which thread runs a slot (docs/parallelism.md).
//
// Fault tolerance — the robustness layer (docs/robustness.md):
//
//   * Admission control: Options::max_concurrent_batches and
//     max_queued_queries bound the work in flight. Over the bound,
//     AnswerBatch sheds the whole batch immediately with ResourceExhausted —
//     zero ε is reserved, zero scans run — instead of queueing unboundedly.
//     AdmissionStats (admitted/rejected/peak_inflight) expose the behavior.
//   * Deadlines and cancellation: each request may carry an absolute
//     deadline, and a batch may carry a CancelToken (BatchControl). Both are
//     polled cooperatively at shard boundaries inside every scan and at
//     stage transitions; a tripped poll abandons the query, which comes back
//     as DeadlineExceeded/Cancelled with its reservation refunded in full
//     (sound: nothing was released). Cancellation decides *whether* an
//     answer is released, never its value — every delivered answer stays
//     bit-identical to the serial replay of its (generation, session, seq).
//   * Exception safety: the ε charge is held by an RAII BudgetReservation
//     (commit on delivery, refund on every other exit — error, injected
//     fault, cancellation), execution failures of any kind surface as error
//     Results in the matching batch slot, and a throw inside a pool task is
//     rethrown by ParallelForBlocked in the caller instead of terminating
//     the process. The conservation invariant — ε spent equals the Σ ε of
//     delivered answers, with one ledger entry per delivery — holds under
//     any schedule of injected faults (src/common/fault.h), which the soak
//     suite (tests/fault_test.cc, bench/bench_fault_soak.cc) drives against
//     overload and concurrent ingest.
//
// Correctness properties, each pinned by tests/query_service_test.cc:
//
//   * Determinism: a query's noise stream is seeded from QuerySeed(service
//     seed, session id, per-session submission index, snapshot generation) —
//     never from thread identity or timing — so every answer is bit-identical
//     to a serial replay of (generation, session, seq) regardless of thread
//     count or the interleaving of other sessions' traffic and of ingest.
//   * Budget safety: charging is two-phase (reserve both budgets serially in
//     submission order, execute in parallel, refund on downstream failure),
//     so concurrent batches can never jointly overspend either budget, and
//     which query of a batch hits the budget wall is deterministic.
//   * No charge for malformed queries: compilation and binning errors, a
//     histogram mechanism outside the catalog, and an ε that is not a
//     positive finite number, are caught during validation, before any
//     reservation.
//
// The service takes over the engine's snapshot, policy and total_epsilon,
// making it the dataset's single accounting authority: there is no aliased
// path that could spend the same ε twice.

#ifndef OSDP_RUNTIME_QUERY_SERVICE_H_
#define OSDP_RUNTIME_QUERY_SERVICE_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "src/accounting/concurrent.h"
#include "src/common/cancel.h"
#include "src/common/result.h"
#include "src/core/engine.h"
#include "src/data/predicate.h"
#include "src/data/snapshot.h"
#include "src/data/snapshot_store.h"
#include "src/data/table_builder.h"
#include "src/data/table_view.h"
#include "src/hist/histogram_query.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/runtime/mask_cache.h"
#include "src/runtime/parallel_scan.h"
#include "src/runtime/thread_pool.h"

namespace osdp {

/// A noisy COUNT(*) WHERE `where` over the non-sensitive rows, charging
/// `epsilon` (one-sided Laplace, sensitivity 1 — Section 5.1).
struct CountRequest {
  Predicate where;
  double epsilon = 0.1;
  /// Absolute per-request deadline; past it, the query is abandoned at the
  /// next cooperative check point and returns DeadlineExceeded with its ε
  /// fully refunded. Combines with any BatchControl deadline (earlier wins).
  std::optional<std::chrono::steady_clock::time_point> deadline = std::nullopt;
};

/// A histogram release through `mechanism`, charging `epsilon`.
struct HistogramRequest {
  HistogramQuery query;
  double epsilon = 0.1;
  EngineMechanism mechanism = EngineMechanism::kOsdpLaplaceL1;
  /// Absolute per-request deadline; see CountRequest::deadline.
  std::optional<std::chrono::steady_clock::time_point> deadline = std::nullopt;
};

/// An OsdpRR release (Algorithm 1), charging `epsilon`: a true sample of the
/// non-sensitive rows, each released unchanged with probability 1 - e^{-ε}.
struct SampleRequest {
  double epsilon = 0.1;
  /// Absolute per-request deadline; see CountRequest::deadline.
  std::optional<std::chrono::steady_clock::time_point> deadline = std::nullopt;
};

/// One query of a batch.
using ServiceRequest =
    std::variant<CountRequest, HistogramRequest, SampleRequest>;

/// The answer to one query: `count` for CountRequest, `histogram` for
/// HistogramRequest, `sample` for SampleRequest. `generation` is the
/// snapshot generation the answer was computed against — replaying the query
/// against that generation with the same (seed, session, seq) reproduces it
/// bit-for-bit.
struct ServiceAnswer {
  double count = 0.0;
  std::optional<Histogram> histogram;
  /// The released rows, as a view that pins the answer's snapshot: it stays
  /// valid however many generations are published after it.
  std::optional<TableView> sample;
  uint64_t generation = 0;
  /// The per-session submission sequence number this answer's noise stream
  /// was seeded with — together with (root seed, session, generation) it is
  /// the full replay key (see QuerySeed). Sequence numbers are consumed at
  /// reservation, so a query that reserved and then failed (fault, deadline)
  /// leaves a hole in the delivered seq range; replay uses the recorded seq,
  /// never the delivery index.
  uint64_t seq = 0;
  /// True iff the deterministic scan mask behind this answer (the count's
  /// or the histogram's WHERE mask; an unfiltered histogram's is the TRUE
  /// clause's) was served from the service's MaskCache instead of being
  /// rescanned. Purely observational: hit and miss answers are
  /// bit-identical, and the noisy release stage is never cached. Always
  /// false for a sample or when the cache is disabled, and false when the
  /// mask extended an older generation's: that is still a miss.
  bool cache_hit = false;
  /// Wall time this query spent in the service, from batch submission to
  /// delivery of this answer, in microseconds. Metadata only — measured
  /// *after* the answer's bits are final and never consulted by any
  /// mechanism, so two runs of the same query agree on every other field
  /// while (naturally) disagreeing here; asserted by the twin-run tests.
  /// Always populated, independent of the metrics_enabled telemetry gate.
  double server_duration_micros = 0.0;
};

/// \brief Concurrent multi-session OSDP query service over a streaming,
/// snapshot-isolated dataset.
///
/// Thread-safe throughout: OpenSession / AnswerBatch / Ingest / the
/// inspection methods may be called from any thread at any time.
class QueryService {
 public:
  /// Analyst session handle.
  using SessionId = uint64_t;

  /// Service configuration.
  struct Options {
    /// Lifetime ε each analyst session may spend.
    double per_session_epsilon = 1.0;
    /// Pool scans and batches run on; nullptr = ThreadPool::Default().
    ThreadPool* pool = nullptr;
    /// Shards per scan; 0 = one per pool worker.
    size_t num_shards = 0;
    /// Root seed of the per-query noise streams.
    uint64_t seed = 0x05D9;
    /// Byte budget of the predicate-mask cache (sharded-lock LRU keyed by
    /// canonical compiled-predicate fingerprint × snapshot generation);
    /// 0 disables caching. Caching is privacy-neutral — every answer is
    /// still charged — and bit-identical to the cold path, so it is on by
    /// default.
    size_t mask_cache_bytes = 64ull << 20;
    /// Admission control: maximum AnswerBatch calls executing concurrently;
    /// 0 = unlimited. A batch arriving at the bound is shed whole — every
    /// slot returns ResourceExhausted, nothing is reserved or scanned.
    size_t max_concurrent_batches = 0;
    /// Admission control: maximum queries (summed over in-flight batches)
    /// allowed in the service at once; 0 = unlimited. A batch whose size
    /// would push the total past the bound is shed whole — so under
    /// overload, the shed/admit decision depends only on load, never on
    /// query contents, keeping admitted answers bit-identical to an
    /// unloaded replay.
    size_t max_queued_queries = 0;
    /// Master switch of the telemetry layer (stage latency histograms and
    /// per-query traces, both for one query in 64 plus every failed query;
    /// timing gauges). ANDed with the OSDP_METRICS env var
    /// ("0" disables) at Create. Disabled, every instrumented site costs one
    /// relaxed atomic load — no clocks, no histogram writes, no traces —
    /// and answers are bit-identical either way (telemetry is write-only;
    /// nothing reads it on a decision path). Functional counters —
    /// admission, query outcomes, cache hits/misses/evictions — are exact
    /// regardless of this switch.
    bool metrics_enabled = true;
    /// Capacity of the bounded in-memory ring of recent per-query traces
    /// (admit → cache lookup/scan → accumulate → mechanism → budget charge →
    /// deliver). Slots are preallocated at Create; 0 keeps spans from being
    /// retained.
    size_t trace_ring_capacity = 256;
  };

  /// Load-shedding counters: batches admitted, batches shed with
  /// ResourceExhausted, and the peak number of concurrently executing
  /// batches observed (the high-water mark max_concurrent_batches clamps).
  struct AdmissionStats {
    uint64_t admitted = 0;
    uint64_t rejected = 0;
    uint64_t peak_inflight = 0;
  };

  /// Batch-wide execution control for AnswerBatch: an optional absolute
  /// deadline applied to every query of the batch (a per-request deadline
  /// tightens it further; the earlier one wins) and an optional CancelToken
  /// the caller can fire from any thread to abandon whatever has not yet
  /// been released. Abandoned queries return DeadlineExceeded/Cancelled
  /// with their ε refunded in full.
  struct BatchControl {
    std::optional<std::chrono::steady_clock::time_point> deadline;
    std::optional<CancelToken> cancel;
  };

  /// Takes over `engine`: its total_epsilon becomes the service-wide
  /// lifetime budget, its snapshot generation 0 of the streaming dataset,
  /// and its policy the one every release is recorded under. InvalidArgument
  /// unless per_session_epsilon is positive and finite.
  static Result<std::unique_ptr<QueryService>> Create(OsdpEngine engine,
                                                      Options options);

  /// Opens a session for `analyst` with a fresh per-session budget.
  SessionId OpenSession(const std::string& analyst);

  /// \brief Closes a session; in-flight batches complete, new ones are
  /// rejected with NotFound.
  ///
  /// Safe concurrently with that session's own AnswerBatch: every prepared
  /// query captures the Session object through a shared_ptr at submission,
  /// so a batch in flight when CloseSession lands keeps its session — and
  /// with it the budget its reservations commit into or refund to — alive
  /// until the batch finishes. Its answers are delivered normally, its
  /// charges and ledger entries remain valid and reconcile exactly; only
  /// *new* submissions observe the close. (Pinned by
  /// QueryServiceTest.CloseSessionDuringInFlightBatch.)
  Status CloseSession(SessionId session);

  /// \brief Appends `batch` (same schema as the dataset) as the next
  /// generation and publishes the new snapshot atomically: the batch's rows
  /// are classified by the policy incrementally (only the new rows are
  /// scanned), and every query submitted after the swap sees them. Queries
  /// already submitted keep answering against the generation they captured.
  /// Returns the new generation id. InvalidArgument (and no new generation)
  /// on a schema mismatch. An *empty* batch of the right schema is a no-op
  /// returning the current generation — no snapshot is published, so cached
  /// masks and in-flight readers are untouched. Thread-safe; concurrent
  /// Ingest calls serialize.
  ///
  /// Failure atomicity: a failed Ingest publishes nothing, so readers never
  /// observe a torn or partial generation. If the failure struck *after*
  /// the rows were appended but before publish (the "ingest/publish" fault
  /// window), those rows are not lost: they ride along with the next
  /// successful Ingest's generation. The error message names the injected
  /// fault point, so a caller (or the soak harness) can tell the two
  /// windows apart.
  Result<uint64_t> Ingest(const RowBatch& batch);

  /// \brief Answers a batch of queries for `session`, all against the
  /// snapshot captured when the batch was submitted. Validation and budget
  /// reservation happen serially in batch order; execution spreads the
  /// slots across the pool, except that a batch of counts runs them on the
  /// calling thread (its scans still shard). Per-query failures (malformed
  /// query, exhausted budget, deadline, cancellation, injected fault) come
  /// back as error Results in the matching slot without failing the rest of
  /// the batch. Under admission-control overload the whole batch is shed:
  /// every slot returns ResourceExhausted and nothing is charged.
  std::vector<Result<ServiceAnswer>> AnswerBatch(
      SessionId session, const std::vector<ServiceRequest>& batch,
      const BatchControl& control = {});

  /// Convenience single-query forms.
  Result<ServiceAnswer> AnswerCount(SessionId session, const Predicate& where,
                                    double epsilon);
  Result<ServiceAnswer> AnswerHistogram(SessionId session,
                                        const HistogramQuery& query,
                                        double epsilon,
                                        EngineMechanism mechanism);

  /// \brief The noise-stream seed of one query — the full reproducibility
  /// contract, public so a serial replay can reconstruct any answer:
  /// rebuild the dataset at `generation`, seed an Rng with
  /// QuerySeed(root_seed, session, seq, generation), and run the same
  /// mechanism. Pure function of its arguments.
  static uint64_t QuerySeed(uint64_t root_seed, SessionId session,
                            uint64_t seq, uint64_t generation);

  /// The latest published snapshot (atomic load).
  SnapshotPtr current_snapshot() const { return store_.Current(); }

  /// Generation id of the latest published snapshot.
  uint64_t current_generation() const { return store_.Current()->generation; }

  /// Remaining service-wide lifetime budget.
  double remaining_budget() const { return service_budget_.remaining(); }

  /// Remaining budget of one session; NotFound after CloseSession.
  Result<double> session_remaining(SessionId session) const;

  /// The composed (P, ε)-OSDP guarantee of every successful release across
  /// all sessions (Theorem 3.3). Errors if nothing has been released.
  Result<ComposedGuarantee> CurrentGuarantee() const {
    return ledger_.Sequential();
  }

  /// The thread-safe composition ledger: the one record of every successful
  /// release (its ε, "<kind> (<analyst>)" label and the generation it was
  /// charged against), with the policy stored once.
  const SharedLedger& ledger() const { return ledger_; }

  /// Mask-cache counters {hits, misses, evictions, bytes, entries,
  /// aggregate_hits, aggregate_misses, extensions} so tests and benches can
  /// assert cache behavior instead of inferring it from timing. A thin view
  /// over the registry's cache.* counters (the cache increments them
  /// directly) plus the per-shard byte/entry totals. All zero when the cache
  /// is disabled.
  MaskCache::Stats cache_stats() const { return mask_cache_.stats(); }

  /// Admission counters {admitted, rejected, peak_inflight} so tests and
  /// the load bench can assert shedding behavior exactly. A thin view over
  /// the registry's service.* counters — the single source of truth since
  /// the observability PR; exact at quiescent points (relaxed-atomic reads,
  /// no lock).
  AdmissionStats admission_stats() const;

  /// \brief Point-in-time copy of every metric: the service's own registry
  /// (service.*, cache.*, ingest.*) plus on-demand budget gauges (budget.*,
  /// including per-session ε spent/remaining computed from the live budgets
  /// — never maintained as live metrics, so session cardinality costs
  /// nothing until someone scrapes), pool telemetry (pool.*), and the fault
  /// registry's per-point hit/fire counters (fault.*). Entries are sorted
  /// by name. This — serialized by DumpMetricsJson() — is the surface the
  /// future wire front end will serve as its scrape endpoint.
  obs::MetricsSnapshot MetricsSnapshot() const;

  /// MetricsSnapshot() as stable JSON.
  std::string DumpMetricsJson() const;

  /// The bounded ring of recent per-query traces (DumpText()/DumpJson() for
  /// the human/scrape views): sampled queries and every failed one. Empty
  /// unless telemetry is enabled.
  const obs::TraceRing& trace_ring() const { return traces_; }

  /// Number of rows in the latest published generation.
  size_t num_rows() const { return store_.Current()->table.num_rows(); }

 private:
  struct Session {
    SessionId id;
    std::string analyst;
    SharedBudget budget;
    std::atomic<uint64_t> next_seq{0};

    Session(SessionId id, std::string analyst, double epsilon)
        : id(id), analyst(std::move(analyst)), budget(epsilon) {}
  };

  // One validated, budget-reserved query awaiting execution.
  struct PreparedRequest;

  QueryService(const OsdpEngine& engine, TableBuilder builder,
               Options options);

  // The pool scans, batches and mechanisms run on: Options::pool, or
  // ThreadPool::Default().
  ThreadPool& pool() const {
    return options_.pool != nullptr ? *options_.pool : ThreadPool::Default();
  }

  std::shared_ptr<Session> FindSession(SessionId session) const;

  // Phase 0: the admission gate. Returns true and counts the batch in when
  // the in-flight bounds admit it; false (caller sheds with
  // ResourceExhausted) otherwise. Every TryAdmit(true) is paired with
  // exactly one EndBatch by AnswerBatch's scope guard.
  bool TryAdmit(size_t batch_queries);
  void EndBatch(size_t batch_queries);

  // Phase 1a: validate and bind one request of `session` against the
  // captured snapshot — predicate compilation, histogram binding, ε checks —
  // and build its "<kind> (<analyst>)" label, the one string the budgets'
  // refusal messages and the ledger entry share. CPU-bound and lock-free,
  // so concurrent batches validate in parallel.
  Result<PreparedRequest> Validate(const ServiceRequest& request,
                                   std::shared_ptr<Session> session,
                                   const SnapshotPtr& snapshot,
                                   const BatchControl& control) const;

  // Phase 1b: reserve both budgets of the request's session and the service
  // (held by the prepared request's RAII BudgetReservation until Execute
  // commits) and assign the noise seed. Callers hold reserve_mu_, so the
  // (session, service) pair commits atomically and in deterministic batch
  // order.
  Status Reserve(PreparedRequest* prepared);

  // Phase 2: execute one prepared query against its captured snapshot
  // (parallel, shard-local state only), reading its WHERE clause's entry
  // from the batch's lookup. Commits the reservation exactly when the answer
  // is delivered; any other exit — error Status, AbortedError from a tripped
  // deadline/cancel poll, InjectedFault or any other exception unwinding
  // through — leaves the reservation armed, and the caller's destruction of
  // the prepared request refunds it in full. A query telemetry sampled
  // opens its trace span here and marks each stage as it ends.
  Result<ServiceAnswer> Execute(PreparedRequest* prepared);

  // Phase 2's one exit, for every query that reached it: reads the slot's
  // Status once, counts the outcome into the service.queries_* counters
  // (telemetry on or off), and closes the query's trace — the sampled span,
  // or with telemetry on an identity-only trace for an unsampled failure.
  void Finish(PreparedRequest* prepared, const Result<ServiceAnswer>& result);

  // Looks up the WHERE clauses of `slots` over `snap` in one
  // MaskCache::LookupMany call: the misses that start at the same row are
  // built by one ParallelEvalMasksInto pass on `scan` (an extension scans
  // only the rows an older generation's entry does not cover). Stores each
  // slot's entry and hit flag, or the exception its clause's scan or insert
  // threw, on the slot; an exception LookupMany itself throws goes on every
  // slot.
  void LookupWheres(const std::vector<PreparedRequest*>& slots,
                    const Snapshot& snap, const ParallelScanOptions& scan);

  // The exact x (or, with `non_sensitive`, x_ns) histogram of `query` over
  // the rows `where` selects, memoized on `where`.
  std::shared_ptr<const Histogram> ExactHistogram(
      const PreparedHistogramQuery& query, const Snapshot& snap,
      const MaskCache::Entry& where, bool non_sensitive,
      const ParallelScanOptions& scan);

  // Resolved registry handles, one pointer per metric the hot paths touch —
  // looked up once at construction so instrumentation never pays a name
  // lookup. Grouped here (rather than ad-hoc members) so the catalog in
  // docs/observability.md has one place to mirror.
  struct MetricsHandles {
    // service.* — admission and outcome counters (functional: always
    // maintained; admission_stats() is a view over the first three).
    obs::Counter* batches_admitted;
    obs::Counter* batches_rejected;
    obs::Counter* queries_shed;
    obs::Counter* queries_delivered;
    obs::Counter* queries_failed;
    obs::Counter* queries_cancelled;
    obs::Counter* queries_deadline_exceeded;
    obs::Gauge* inflight_batches;
    obs::Gauge* inflight_queries;
    obs::Gauge* peak_inflight_batches;
    // service.* — stage latency histograms (telemetry: gated).
    obs::LatencyHistogram* h_query;
    obs::LatencyHistogram* h_batch;
    obs::LatencyHistogram* h_validate;
    obs::LatencyHistogram* h_reserve;
    obs::LatencyHistogram* h_cache_lookup;
    obs::LatencyHistogram* h_scan;
    obs::LatencyHistogram* h_accumulate;
    obs::LatencyHistogram* h_mechanism;
    // cache.* — functional counters the MaskCache increments directly.
    obs::Counter* cache_hits;
    obs::Counter* cache_misses;
    obs::Counter* cache_evictions;
    obs::Counter* cache_aggregate_hits;
    obs::Counter* cache_aggregate_misses;
    obs::Counter* cache_extensions;
    obs::Gauge* cache_bytes;
    obs::Gauge* cache_entries;
    // ingest.* (telemetry: gated, except the failure counter).
    obs::Counter* ingest_batches;
    obs::Counter* ingest_rows;
    obs::Counter* ingest_failures;
    obs::Gauge* ingest_generation;
    obs::Gauge* ingest_rows_per_sec;
    obs::LatencyHistogram* h_ingest_append;
    obs::LatencyHistogram* h_ingest_publish;
    // budget.* — refreshed on demand by MetricsSnapshot().
    obs::Gauge* budget_service_remaining;
    obs::Gauge* budget_service_spent;
    obs::Gauge* budget_ledger_entries;
  };
  static MetricsHandles ResolveMetrics(obs::MetricsRegistry* registry);

  Policy policy_;
  Options options_;
  // Declared before mask_cache_ so the cache can be wired to the registry's
  // counter cells at construction. Mutable: snapshotting/refreshing gauges
  // is observation, not service state.
  mutable obs::MetricsRegistry metrics_;
  obs::TraceRing traces_;
  // Next trace ticket (see TraceSampled in query_service.cc); drawn once per
  // batch, and only with telemetry on.
  std::atomic<uint64_t> trace_tickets_{0};
  MetricsHandles m_;
  SharedBudget service_budget_;
  SharedLedger ledger_;
  MaskCache mask_cache_;

  // The streaming write path: builder_ accumulates rows under ingest_mu_;
  // store_ publishes immutable snapshots to the read path.
  SnapshotStore store_;
  std::mutex ingest_mu_;
  TableBuilder builder_;

  mutable std::mutex sessions_mu_;
  std::unordered_map<SessionId, std::shared_ptr<Session>> sessions_;
  std::atomic<SessionId> next_session_id_{1};

  // Serializes phase-1 reservation so the (session, service) budget pair
  // commits atomically and in deterministic batch order.
  std::mutex reserve_mu_;

  // The admission gate's book-keeping (a plain mutex: touched twice per
  // batch, invisible next to the scans it admits). The *decision* state —
  // in-flight levels — lives here; the admitted/rejected/peak counters went
  // to the registry (see MetricsHandles), with admission_stats() as a view.
  mutable std::mutex admission_mu_;
  size_t inflight_batches_ = 0;
  size_t inflight_queries_ = 0;
};

}  // namespace osdp

#endif  // OSDP_RUNTIME_QUERY_SERVICE_H_
