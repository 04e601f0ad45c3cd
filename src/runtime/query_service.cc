#include "src/runtime/query_service.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/common/distributions.h"
#include "src/common/fault.h"
#include "src/data/compiled_predicate.h"
#include "src/mech/histogram_mechanism.h"
#include "src/mech/osdp_rr.h"
#include "src/runtime/parallel_scan.h"

namespace osdp {

namespace {

// Telemetry traces one query in 2^kTraceEveryLog2. Full per-query timing —
// about seven clock reads and seven histogram writes — costs more than 2% of
// a query served from the cache's aggregate memo, the path the
// bench_obs_overhead gate times. Tickets are numbered per service in
// submission order and sampled by Fibonacci hashing, so ticket 0 (a
// service's first query) is always traced and a batch that repeats a fixed
// pattern of queries is sampled across the whole pattern.
constexpr int kTraceEveryLog2 = 6;

bool TraceSampled(uint64_t ticket) {
  return ((ticket * 0x9E3779B97F4A7C15ULL) >> (64 - kTraceEveryLog2)) == 0;
}

}  // namespace

// Deterministic 64-bit seed mix; collision-resistance comes from Rng's
// SplitMix64 seeding, this only needs to separate the
// (root, session, seq, generation) tuples.
uint64_t QueryService::QuerySeed(uint64_t root_seed, SessionId session,
                                 uint64_t seq, uint64_t generation) {
  uint64_t z = root_seed;
  z ^= session + 0x9E3779B97F4A7C15ULL + (z << 6) + (z >> 2);
  z ^= seq + 0x9E3779B97F4A7C15ULL + (z << 6) + (z >> 2);
  z ^= generation + 0x9E3779B97F4A7C15ULL + (z << 6) + (z >> 2);
  return z;
}

struct QueryService::PreparedRequest {
  std::shared_ptr<Session> session;
  // The snapshot captured at submission; everything below binds to it, and
  // holding the pointer keeps the generation alive through execution.
  SnapshotPtr snapshot;
  double epsilon = 0.0;
  uint64_t seq = 0;
  uint64_t seed = 0;
  std::string label;  // "<kind> (<analyst>)", the ledger entry's label

  // Per-query deadline/cancellation, resolved at validation (the tighter of
  // the request's and the batch's deadline, plus the batch token).
  ExecControl control;

  // Observability metadata. submit_ns (batch submission time) is always
  // stamped — it feeds ServiceAnswer.server_duration_micros; the per-stage
  // durations are measured only for a query telemetry samples (`traced`) and
  // become the admit/validate/reserve events of its trace.
  bool traced = false;
  uint64_t submit_ns = 0;
  uint64_t admit_ns = 0;
  uint64_t validate_ns = 0;
  uint64_t reserve_ns = 0;

  // Count form: the WHERE clause, compiled during validation.
  std::optional<CompiledPredicate> count_pred;

  // Histogram form: the query bound and validated against the snapshot's
  // table during validation — execution reuses it, so the WHERE clause is
  // compiled exactly once per query.
  std::optional<PreparedHistogramQuery> hist_prepared;
  EngineMechanism mechanism = EngineMechanism::kOsdpLaplaceL1;

  // Sample form: neither of the above is set.

  // The two-budget ε charge, held from reservation until Execute commits it
  // at delivery. Destroying a PreparedRequest whose reservation was never
  // committed refunds both budgets — the single mechanism behind every
  // failure path's refund (error, injected fault, deadline, cancellation).
  // Declared after `session` so destruction (reverse order) refunds into a
  // session budget that is still alive.
  BudgetReservation reservation;
};

QueryService::MetricsHandles QueryService::ResolveMetrics(
    obs::MetricsRegistry* registry) {
  MetricsHandles m;
  m.batches_admitted = registry->GetCounter("service.batches_admitted");
  m.batches_rejected = registry->GetCounter("service.batches_rejected");
  m.queries_shed = registry->GetCounter("service.queries_shed");
  m.queries_delivered = registry->GetCounter("service.queries_delivered");
  m.queries_failed = registry->GetCounter("service.queries_failed");
  m.queries_cancelled = registry->GetCounter("service.queries_cancelled");
  m.queries_deadline_exceeded =
      registry->GetCounter("service.queries_deadline_exceeded");
  m.inflight_batches = registry->GetGauge("service.inflight_batches");
  m.inflight_queries = registry->GetGauge("service.inflight_queries");
  m.peak_inflight_batches =
      registry->GetGauge("service.peak_inflight_batches");
  m.h_query = registry->GetHistogram("service.query_ns");
  m.h_batch = registry->GetHistogram("service.batch_ns");
  m.h_validate = registry->GetHistogram("service.validate_ns");
  m.h_reserve = registry->GetHistogram("service.reserve_ns");
  m.h_cache_lookup = registry->GetHistogram("service.cache_lookup_ns");
  m.h_scan = registry->GetHistogram("service.scan_ns");
  m.h_accumulate = registry->GetHistogram("service.accumulate_ns");
  m.h_mechanism = registry->GetHistogram("service.mechanism_ns");
  m.cache_hits = registry->GetCounter("cache.hits");
  m.cache_misses = registry->GetCounter("cache.misses");
  m.cache_evictions = registry->GetCounter("cache.evictions");
  m.cache_aggregate_hits = registry->GetCounter("cache.aggregate_hits");
  m.cache_aggregate_misses = registry->GetCounter("cache.aggregate_misses");
  m.cache_bytes = registry->GetGauge("cache.bytes");
  m.cache_entries = registry->GetGauge("cache.entries");
  m.ingest_batches = registry->GetCounter("ingest.batches");
  m.ingest_rows = registry->GetCounter("ingest.rows");
  m.ingest_failures = registry->GetCounter("ingest.failures");
  m.ingest_generation = registry->GetGauge("ingest.generation");
  m.ingest_rows_per_sec = registry->GetGauge("ingest.rows_per_sec");
  m.h_ingest_append = registry->GetHistogram("ingest.append_ns");
  m.h_ingest_publish = registry->GetHistogram("ingest.publish_ns");
  m.budget_service_remaining =
      registry->GetGauge("budget.service_remaining_eps");
  m.budget_service_spent = registry->GetGauge("budget.service_spent_eps");
  m.budget_ledger_entries = registry->GetGauge("budget.ledger_entries");
  return m;
}

QueryService::QueryService(OsdpEngine engine, TableBuilder builder,
                           Options options)
    : engine_(std::move(engine)),
      options_(options),
      metrics_(options.metrics_enabled && obs::MetricsEnabledFromEnv()),
      traces_(options.trace_ring_capacity),
      m_(ResolveMetrics(&metrics_)),
      service_budget_(engine_.options().total_epsilon),
      mask_cache_(MaskCache::Options{
          options.mask_cache_bytes, options.mask_cache_shards, m_.cache_hits,
          m_.cache_misses, m_.cache_evictions, m_.cache_aggregate_hits,
          m_.cache_aggregate_misses}),
      store_(engine_.snapshot()),
      builder_(std::move(builder)) {
  // Route the mechanisms' deterministic stages (interval-cost engine build,
  // hierarchical consistency passes) onto the service pool. Noise stays on
  // each query's own Rng, so serial replay engines — which keep the default
  // null pool — still reproduce every answer bit-for-bit.
  engine_.set_mech_pool(options_.pool != nullptr ? options_.pool
                                                 : &ThreadPool::Default());
  if (metrics_.enabled()) {
    // Light up the pool's own telemetry alongside ours. Enabling is one-way
    // here on purpose: a metrics-off service sharing a pool with a
    // metrics-on one must not silently switch the shared telemetry off.
    ThreadPool& pool =
        options_.pool != nullptr ? *options_.pool : ThreadPool::Default();
    pool.set_metrics_enabled(true);
  }
}

Result<std::unique_ptr<QueryService>> QueryService::Create(OsdpEngine engine,
                                                           Options options) {
  if (!std::isfinite(options.per_session_epsilon) ||
      options.per_session_epsilon <= 0.0) {
    return Status::InvalidArgument(
        "per_session_epsilon must be positive and finite");
  }
  // The builder seeds from a copy of the engine's generation-0 snapshot
  // (adopting its already-computed mask rather than re-scanning the seed
  // rows) so the write path can grow while every published snapshot —
  // including the engine's own — stays immutable.
  OSDP_ASSIGN_OR_RETURN(
      TableBuilder builder,
      TableBuilder::FromSnapshot(*engine.snapshot(), engine.policy()));
  return std::unique_ptr<QueryService>(
      new QueryService(std::move(engine), std::move(builder), options));
}

QueryService::SessionId QueryService::OpenSession(const std::string& analyst) {
  const SessionId id =
      next_session_id_.fetch_add(1, std::memory_order_relaxed);
  auto session = std::make_shared<Session>(id, analyst,
                                           options_.per_session_epsilon);
  std::lock_guard<std::mutex> lock(sessions_mu_);
  sessions_.emplace(id, std::move(session));
  return id;
}

Status QueryService::CloseSession(SessionId session) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  if (sessions_.erase(session) == 0) {
    return Status::NotFound("no session " + std::to_string(session));
  }
  return Status::OK();
}

Result<uint64_t> QueryService::Ingest(const RowBatch& batch) {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  const bool telemetry = metrics_.enabled();
  const uint64_t t0 = telemetry ? obs::NowNs() : 0;
  try {
    const Status appended = builder_.Append(batch);
    if (!appended.ok()) {
      m_.ingest_failures->Increment();
      return appended;
    }
    const uint64_t t_append = telemetry ? obs::NowNs() : 0;
    if (telemetry) m_.h_ingest_append->Record(t_append - t0);
    if (batch.num_rows() == 0) {
      // Schema-valid but empty: a no-op. Publishing a new generation here
      // would invalidate every cached (predicate, generation) mask for
      // nothing — the dataset is bit-identical — so the current snapshot
      // stays, and so do its cache entries.
      return store_.Current()->generation;
    }
    // Build the complete next generation, then publish it with one atomic
    // swap: a concurrent reader captures either the old snapshot in full or
    // the new one in full, never a mixture. A fault between append and
    // publish ("ingest/publish") leaves the rows in the builder unpublished;
    // they ride along with the next successful Ingest.
    const uint64_t generation = store_.Current()->generation + 1;
    SnapshotPtr next = builder_.BuildSnapshot(generation);
    OSDP_FAULT_POINT("ingest/publish");
    store_.Publish(std::move(next));
    if (telemetry) {
      const uint64_t t_end = obs::NowNs();
      // "Publish" latency is build-and-swap: everything between the append
      // returning and the new snapshot becoming visible.
      m_.h_ingest_publish->Record(t_end - t_append);
      m_.ingest_batches->Increment();
      m_.ingest_rows->Increment(batch.num_rows());
      m_.ingest_generation->Set(static_cast<double>(generation));
      const double sec = static_cast<double>(t_end - t0) * 1e-9;
      if (sec > 0.0) {
        m_.ingest_rows_per_sec->Set(
            static_cast<double>(batch.num_rows()) / sec);
      }
    }
    return generation;
  } catch (const InjectedFault& fault) {
    m_.ingest_failures->Increment();
    return Status::Internal(fault.what());
  } catch (const std::exception& e) {
    m_.ingest_failures->Increment();
    return Status::Internal(std::string("ingest failed: ") + e.what());
  }
}

std::shared_ptr<QueryService::Session> QueryService::FindSession(
    SessionId session) const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto it = sessions_.find(session);
  return it == sessions_.end() ? nullptr : it->second;
}

Result<double> QueryService::session_remaining(SessionId session) const {
  std::shared_ptr<Session> s = FindSession(session);
  if (s == nullptr) {
    return Status::NotFound("no session " + std::to_string(session));
  }
  return s->budget.remaining();
}

bool QueryService::TryAdmit(size_t batch_queries) {
  // The decision state (in-flight levels) stays under the mutex; the
  // counters and gauges it feeds are registry cells — functional metrics,
  // maintained whether or not telemetry is enabled, and exactly what
  // admission_stats() reads back.
  std::lock_guard<std::mutex> lock(admission_mu_);
  if (options_.max_concurrent_batches != 0 &&
      inflight_batches_ >= options_.max_concurrent_batches) {
    m_.batches_rejected->Increment();
    m_.queries_shed->Increment(batch_queries);
    return false;
  }
  if (options_.max_queued_queries != 0 &&
      inflight_queries_ + batch_queries > options_.max_queued_queries) {
    m_.batches_rejected->Increment();
    m_.queries_shed->Increment(batch_queries);
    return false;
  }
  ++inflight_batches_;
  inflight_queries_ += batch_queries;
  m_.batches_admitted->Increment();
  m_.inflight_batches->Set(static_cast<double>(inflight_batches_));
  m_.inflight_queries->Set(static_cast<double>(inflight_queries_));
  m_.peak_inflight_batches->SetMax(static_cast<double>(inflight_batches_));
  return true;
}

void QueryService::EndBatch(size_t batch_queries) {
  std::lock_guard<std::mutex> lock(admission_mu_);
  --inflight_batches_;
  inflight_queries_ -= batch_queries;
  m_.inflight_batches->Set(static_cast<double>(inflight_batches_));
  m_.inflight_queries->Set(static_cast<double>(inflight_queries_));
}

QueryService::AdmissionStats QueryService::admission_stats() const {
  return AdmissionStats{
      m_.batches_admitted->value(), m_.batches_rejected->value(),
      static_cast<uint64_t>(m_.peak_inflight_batches->value())};
}

Result<QueryService::PreparedRequest> QueryService::Validate(
    const ServiceRequest& request, std::shared_ptr<Session> session,
    const SnapshotPtr& snapshot, const BatchControl& control) const {
  PreparedRequest prepared;
  prepared.session = std::move(session);
  prepared.snapshot = snapshot;

  // Validate fully before touching either budget: a malformed query or an ε
  // that is not a positive finite number must cost nothing. (A NaN ε would
  // slip past `<= 0` and reach the noise samplers' preconditions.)
  prepared.epsilon = std::visit([](const auto& r) { return r.epsilon; },
                                request);
  if (!std::isfinite(prepared.epsilon) || prepared.epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive and finite");
  }
  if (const auto* count = std::get_if<CountRequest>(&request)) {
    OSDP_ASSIGN_OR_RETURN(
        CompiledPredicate compiled,
        CompiledPredicate::Compile(count->where, snapshot->table.schema()));
    prepared.count_pred = std::move(compiled);
    prepared.label = "count query";
  } else if (const auto* hist = std::get_if<HistogramRequest>(&request)) {
    OSDP_ASSIGN_OR_RETURN(
        PreparedHistogramQuery bound,
        PreparedHistogramQuery::Prepare(snapshot->table, hist->query));
    prepared.hist_prepared = std::move(bound);
    prepared.mechanism = hist->mechanism;
    prepared.label =
        std::string("histogram/") + EngineMechanismToString(hist->mechanism);
  } else {
    prepared.label = "OsdpRR sample";
  }
  prepared.label += " (" + prepared.session->analyst + ")";
  std::optional<std::chrono::steady_clock::time_point> deadline =
      control.deadline;
  const auto& request_deadline = std::visit(
      [](const auto& r) -> const auto& { return r.deadline; }, request);
  if (request_deadline.has_value() &&
      (!deadline.has_value() || *request_deadline < *deadline)) {
    deadline = request_deadline;
  }
  prepared.control = ExecControl(control.cancel, deadline);
  return prepared;
}

Status QueryService::Reserve(PreparedRequest* prepared) {
  // Two-budget reservation through the RAII BudgetReservation: the session
  // first (the analyst's own limit), then the service-wide lifetime budget
  // (Acquire rolls the session back itself if the dataset is out of ε).
  // From here until Execute commits, destroying the prepared request —
  // whatever made it die — refunds both budgets.
  Session& session = *prepared->session;
  Result<BudgetReservation> reservation =
      BudgetReservation::Acquire(&session.budget, prepared->label,
                                 &service_budget_, prepared->label,
                                 prepared->epsilon);
  if (!reservation.ok()) return reservation.status();
  prepared->reservation = std::move(reservation).ValueOrDie();

  // The sequence number is consumed here, at reservation — a query that
  // reserves and then fails leaves a hole in the delivered seq range, which
  // is why ServiceAnswer reports the seq it was seeded with.
  prepared->seq = session.next_seq.fetch_add(1);
  prepared->seed = QuerySeed(options_.seed, session.id, prepared->seq,
                             prepared->snapshot->generation);
  return Status::OK();
}

MaskCache::EntryPtr QueryService::CachedScanMask(
    const CompiledPredicate& pred, const Snapshot& snap,
    const ParallelScanOptions& scan, bool* cache_hit) {
  return mask_cache_.Lookup(
      pred, snap.generation,
      [&] { return ParallelEvalMask(pred, snap.table, scan); }, cache_hit);
}

std::shared_ptr<const Histogram> QueryService::ExactHistogram(
    const PreparedHistogramQuery& query, const Snapshot& snap,
    const MaskCache::Entry* where, bool non_sensitive,
    const ParallelScanOptions& scan) {
  const auto accumulate = [&] {
    if (where != nullptr) {
      return non_sensitive
                 ? ParallelAccumulateHistogram(query, where->mask(),
                                               snap.non_sensitive, scan)
                 : ParallelAccumulateHistogram(query, where->mask(), scan);
    }
    if (non_sensitive) {
      return ParallelAccumulateHistogram(query, snap.non_sensitive, scan);
    }
    const RowMask all_rows(snap.table.num_rows(), /*value=*/true);
    return ParallelAccumulateHistogram(query, all_rows, scan);
  };
  // An unfiltered histogram has no cache entry to hold it.
  if (where == nullptr) return std::make_shared<const Histogram>(accumulate());
  return mask_cache_.AggregateHistogram(
      *where, MaskCache::HistogramKey::Of(query, non_sensitive), accumulate);
}

Result<ServiceAnswer> QueryService::Execute(PreparedRequest* prepared) {
  if (!prepared->traced) return ExecuteImpl(prepared, nullptr);

  // A query telemetry sampled (see TraceSampled): build its trace from the
  // stage durations the batch loops already measured, let ExecuteImpl mark
  // the execution stages, and push the finished trace whatever the outcome.
  // Exceptions re-raise unchanged: AnswerBatch's per-slot handling (and the
  // refund-by-destruction contract) is identical for sampled queries, and
  // AnswerBatch classifies every outcome (RecordFailure).
  obs::TraceSpan span(prepared->session->id, prepared->seq,
                      prepared->snapshot->generation);
  span.Add(obs::Stage::kAdmit, prepared->admit_ns);
  span.Add(obs::Stage::kValidate, prepared->validate_ns);
  span.Add(obs::Stage::kReserve, prepared->reserve_ns);
  try {
    Result<ServiceAnswer> result = ExecuteImpl(prepared, &span);
    const uint64_t end_ns = obs::NowNs();
    if (result.ok()) {
      m_.h_query->Record(end_ns - prepared->submit_ns);
      span.Mark(obs::Stage::kDeliver, end_ns);
      span.trace().cache_hit = result.ValueOrDie().cache_hit;
    }
    span.Finish(static_cast<int>(result.status().code()), traces_, end_ns);
    return result;
  } catch (const AbortedError& aborted) {
    span.Finish(static_cast<int>(aborted.status.code()), traces_,
                obs::NowNs());
    throw;
  } catch (...) {
    span.Finish(static_cast<int>(StatusCode::kInternal), traces_,
                obs::NowNs());
    throw;
  }
}

void QueryService::RecordFailure(const PreparedRequest& prepared,
                                 StatusCode code) {
  if (code == StatusCode::kCancelled) {
    m_.queries_cancelled->Increment();
  } else if (code == StatusCode::kDeadlineExceeded) {
    m_.queries_deadline_exceeded->Increment();
  } else {
    m_.queries_failed->Increment();
  }
  // A sampled query pushed its own trace; any other failed query still
  // leaves one, with its identity and status alone.
  if (!prepared.traced) {
    obs::TraceSpan span(prepared.session->id, prepared.seq,
                        prepared.snapshot->generation);
    span.Finish(static_cast<int>(code), traces_, span.trace().start_ns);
  }
}

Result<ServiceAnswer> QueryService::ExecuteImpl(PreparedRequest* prepared,
                                                obs::TraceSpan* span) {
  OSDP_FAULT_POINT("query/execute");
  // Entry check: a deadline that passed while the query sat behind the
  // reservation phase, or a token fired before any scan ran, abandons the
  // query before it costs a single row.
  prepared->control.ThrowIfAborted();

  ParallelScanOptions scan{options_.pool, options_.num_shards};
  if (prepared->control.active()) scan.control = &prepared->control;
  const Snapshot& snap = *prepared->snapshot;
  Rng rng(prepared->seed);
  ServiceAnswer answer;
  answer.generation = snap.generation;
  answer.seq = prepared->seq;

  if (prepared->count_pred.has_value()) {
    const MaskCache::EntryPtr where =
        CachedScanMask(*prepared->count_pred, snap, scan, &answer.cache_hit);
    if (span != nullptr) {
      const uint64_t dt = span->Mark(answer.cache_hit
                                         ? obs::Stage::kCacheLookup
                                         : obs::Stage::kScan,
                                     obs::NowNs());
      (answer.cache_hit ? m_.h_cache_lookup : m_.h_scan)->Record(dt);
    }
    // |WHERE ∧ non-sensitive|, memoized on the cache entry: the first query
    // of this (predicate, generation) runs one fused AND + popcount pass over
    // both masks' words, reading the shared mask in place; later ones read
    // the stored count.
    const double count = static_cast<double>(
        mask_cache_.NonSensitiveCount(*where, [&] {
          return ParallelAndCount(where->mask(), snap.non_sensitive, scan);
        }));
    if (span != nullptr) {
      m_.h_accumulate->Record(
          span->Mark(obs::Stage::kAccumulate, obs::NowNs()));
    }
    // One-sided Laplace with sensitivity 1: a one-sided neighbour can only
    // grow the non-sensitive count (Section 5.1).
    OSDP_FAULT_POINT("mechanism/run");
    answer.count = count + SampleOneSidedLaplace(rng, 1.0 / prepared->epsilon);
    if (span != nullptr) {
      m_.h_mechanism->Record(
          span->Mark(obs::Stage::kMechanism, obs::NowNs()));
    }
  } else if (prepared->hist_prepared.has_value()) {
    if (span != nullptr) span->trace().is_histogram = true;
    const PreparedHistogramQuery& query = *prepared->hist_prepared;

    // Compute only the histogram(s) the mechanism reads; the other input
    // stays all-zero. The WHERE mask, when present, is evaluated once and
    // shared, and both histograms are memoized on its cache entry.
    const MechanismInputs inputs = InputsOf(prepared->mechanism);

    MaskCache::EntryPtr where;
    if (query.where() != nullptr) {
      where = CachedScanMask(*query.where(), snap, scan, &answer.cache_hit);
      if (span != nullptr) {
        const uint64_t dt = span->Mark(answer.cache_hit
                                           ? obs::Stage::kCacheLookup
                                           : obs::Stage::kScan,
                                       obs::NowNs());
        (answer.cache_hit ? m_.h_cache_lookup : m_.h_scan)->Record(dt);
      }
    }

    std::shared_ptr<const Histogram> x, xns;
    if (inputs.x) {
      x = ExactHistogram(query, snap, where.get(), /*non_sensitive=*/false,
                         scan);
    }
    if (inputs.xns) {
      xns = ExactHistogram(query, snap, where.get(), /*non_sensitive=*/true,
                           scan);
    }
    std::optional<Histogram> zeros;
    if (x == nullptr || xns == nullptr) zeros.emplace(query.num_bins());
    if (span != nullptr) {
      m_.h_accumulate->Record(
          span->Mark(obs::Stage::kAccumulate, obs::NowNs()));
    }

    OSDP_FAULT_POINT("mechanism/run");
    Result<Histogram> released = engine_.RunMechanism(
        x != nullptr ? *x : *zeros, xns != nullptr ? *xns : *zeros,
        prepared->epsilon, prepared->mechanism, rng);
    // A refused release costs nothing: the reservation is still held, so the
    // prepared request's destruction refunds both budgets — no hand-rolled
    // refund path to forget.
    if (!released.ok()) return released.status();
    answer.histogram = std::move(released).ValueOrDie();
    if (span != nullptr) {
      m_.h_mechanism->Record(
          span->Mark(obs::Stage::kMechanism, obs::NowNs()));
    }
  } else {
    // OsdpRR over the captured generation, its coins drawn from the query's
    // own seed stream. The snapshot's stored classification is the
    // eligible set, so the policy is never re-scanned (or its compile cache
    // touched) from a pool thread. The released view pins that snapshot, so
    // it stays valid after later ingests.
    OSDP_FAULT_POINT("mechanism/run");
    OSDP_ASSIGN_OR_RETURN(
        TableView released,
        OsdpRRReleaseView(snap.table, snap.non_sensitive, prepared->epsilon,
                          rng));
    answer.sample.emplace(prepared->snapshot, released.mask());
    if (span != nullptr) {
      m_.h_mechanism->Record(
          span->Mark(obs::Stage::kMechanism, obs::NowNs()));
    }
  }

  // Last check point before the release becomes real: a cancellation that
  // lands here discards the computed answer whole (never a partial or
  // altered one) and the reservation refunds. Past this line, the answer is
  // delivered and the charge is permanent.
  prepared->control.ThrowIfAborted();
  prepared->reservation.Commit();
  ledger_.Record(engine_.policy(), prepared->epsilon,
                 std::move(prepared->label), snap.generation);
  // Metadata only, stamped after every answer bit is final: the duration can
  // never feed back into the released value (the bit-identity twin tests
  // pin exactly this). One clock read serves both the budget-charge mark and
  // the duration.
  const uint64_t now = obs::NowNs();
  if (span != nullptr) span->Mark(obs::Stage::kBudgetCharge, now);
  answer.server_duration_micros =
      static_cast<double>(now - prepared->submit_ns) * 1e-3;
  return answer;
}

std::vector<Result<ServiceAnswer>> QueryService::AnswerBatch(
    SessionId session, const std::vector<ServiceRequest>& batch,
    const BatchControl& control) {
  std::vector<Result<ServiceAnswer>> results(
      batch.size(), Result<ServiceAnswer>(Status::Internal("not executed")));
  if (batch.empty()) return results;

  // Submission timestamp: always read (it feeds the answers'
  // server_duration_micros); everything finer-grained is behind the
  // telemetry gate.
  const uint64_t submit_ns = obs::NowNs();
  const bool telemetry = metrics_.enabled();

  // Phase 0: the admission gate. Shed-whole-batch keeps the decision a pure
  // function of load — an admitted batch's answers are bit-identical to an
  // unloaded replay because admission never looks inside the queries.
  if (!TryAdmit(batch.size())) {
    for (auto& r : results) {
      r = Status::ResourceExhausted(
          "admission control: service at capacity, batch shed");
    }
    return results;
  }
  // Local classes share the enclosing member's access; the guard pairs the
  // successful TryAdmit with exactly one EndBatch on every exit path.
  struct AdmissionGuard {
    QueryService* service;
    size_t queries;
    ~AdmissionGuard() { service->EndBatch(queries); }
  } admission_guard{this, batch.size()};

  std::shared_ptr<Session> s = FindSession(session);
  if (s == nullptr) {
    for (auto& r : results) {
      r = Status::NotFound("no session " + std::to_string(session));
    }
    return results;
  }

  // Capture the snapshot exactly once, at submission: every query of the
  // batch validates against it, executes against it, and is charged against
  // its generation — ingests that land after this line are invisible to the
  // whole batch.
  const SnapshotPtr snapshot = store_.Current();

  // Phase 1a (lock-free): validate and bind every request — concurrent
  // batches pay the compilation cost in parallel. With telemetry on, each
  // slot draws a trace ticket, and only sampled slots read the clock; the
  // admit duration — time spent getting through the gate — is attributed to
  // every sampled query of the batch.
  const uint64_t first_ticket =
      telemetry ? trace_tickets_.fetch_add(batch.size(),
                                           std::memory_order_relaxed)
                : 0;
  const uint64_t admit_ns = telemetry ? obs::NowNs() - submit_ns : 0;
  std::vector<std::optional<PreparedRequest>> prepared(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const bool traced = telemetry && TraceSampled(first_ticket + i);
    const uint64_t t0 = traced ? obs::NowNs() : 0;
    Result<PreparedRequest> r = Validate(batch[i], s, snapshot, control);
    if (!r.ok()) {
      results[i] = r.status();
      continue;
    }
    prepared[i] = std::move(r).ValueOrDie();
    prepared[i]->submit_ns = submit_ns;
    prepared[i]->admit_ns = admit_ns;
    prepared[i]->traced = traced;
    if (traced) {
      prepared[i]->validate_ns = obs::NowNs() - t0;
      m_.h_validate->Record(prepared[i]->validate_ns);
    }
  }

  // Phase 1b (serial, deterministic batch order): reserve both budgets.
  {
    std::lock_guard<std::mutex> lock(reserve_mu_);
    for (size_t i = 0; i < batch.size(); ++i) {
      if (!prepared[i].has_value()) continue;
      const bool traced = prepared[i]->traced;
      const uint64_t t0 = traced ? obs::NowNs() : 0;
      const Status reserved = Reserve(&*prepared[i]);
      if (!reserved.ok()) {
        results[i] = reserved;
        prepared[i].reset();
        continue;
      }
      if (traced) {
        prepared[i]->reserve_ns = obs::NowNs() - t0;
        m_.h_reserve->Record(prepared[i]->reserve_ns);
      }
    }
  }

  // Phase 2 (parallel): execute the reserved queries. Each slot is written
  // by exactly one chunk, and every scan inside shards further across the
  // same pool (nesting is safe — the caller participates). Every per-query
  // failure mode — error Status, tripped deadline/cancel poll, injected
  // fault, any other exception — is converted to an error Result in its own
  // slot here, so one query can never take down the batch; resetting the
  // slot's PreparedRequest immediately after refunds an uncommitted
  // reservation promptly rather than at end of batch.
  ThreadPool& pool =
      options_.pool != nullptr ? *options_.pool : ThreadPool::Default();
  try {
    pool.ParallelForBlocked(0, batch.size(), 1, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        if (!prepared[i].has_value()) continue;
        try {
          results[i] = Execute(&*prepared[i]);
        } catch (const AbortedError& aborted) {
          results[i] = aborted.status;
        } catch (const InjectedFault& fault) {
          results[i] = Status::Internal(fault.what());
        } catch (const std::exception& e) {
          results[i] =
              Status::Internal(std::string("query execution failed: ") +
                               e.what());
        }
        if (telemetry && !results[i].ok()) {
          RecordFailure(*prepared[i], results[i].status().code());
        }
        prepared[i].reset();
      }
    });
  } catch (const std::exception& e) {
    // A fault injected into the pool chunk itself ("thread_pool/chunk"),
    // rethrown by ParallelForBlocked after the barrier. Slots whose chunks
    // never ran keep their reservations; the loop below surfaces the error
    // and destroying `prepared` refunds every uncommitted charge.
    for (size_t i = 0; i < batch.size(); ++i) {
      if (prepared[i].has_value()) {
        results[i] = Status::Internal(std::string("batch chunk failed: ") +
                                      e.what());
      }
    }
  }
  if (telemetry) {
    // Delivered queries are counted once per batch: every ok slot delivered.
    m_.queries_delivered->Increment(static_cast<uint64_t>(
        std::count_if(results.begin(), results.end(),
                      [](const Result<ServiceAnswer>& r) { return r.ok(); })));
    m_.h_batch->Record(obs::NowNs() - submit_ns);
  }
  return results;
}

Result<ServiceAnswer> QueryService::AnswerCount(SessionId session,
                                                const Predicate& where,
                                                double epsilon) {
  std::vector<ServiceRequest> batch;
  batch.emplace_back(CountRequest{where, epsilon});
  return std::move(AnswerBatch(session, batch)[0]);
}

Result<ServiceAnswer> QueryService::AnswerHistogram(
    SessionId session, const HistogramQuery& query, double epsilon,
    EngineMechanism mechanism) {
  std::vector<ServiceRequest> batch;
  batch.emplace_back(HistogramRequest{query, epsilon, mechanism});
  return std::move(AnswerBatch(session, batch)[0]);
}

obs::MetricsSnapshot QueryService::MetricsSnapshot() const {
  // Budget and cache-level gauges are computed here, on demand, from the
  // live accounting state rather than being maintained on the hot path:
  // scrape-time work scales with scrape rate, not query rate.
  m_.budget_service_remaining->Set(service_budget_.remaining());
  m_.budget_service_spent->Set(service_budget_.spent());
  m_.budget_ledger_entries->Set(static_cast<double>(ledger_.size()));
  const MaskCache::Stats cache = mask_cache_.stats();
  m_.cache_bytes->Set(static_cast<double>(cache.bytes));
  m_.cache_entries->Set(static_cast<double>(cache.entries));

  obs::MetricsSnapshot snap = metrics_.Snapshot();

  // Per-session budgets are merged into this scrape only, never registered:
  // a closed session drops out of the next scrape, and the registry does not
  // grow with the number of sessions ever opened.
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (const auto& [id, session] : sessions_) {
      const std::string prefix = "budget.session." + std::to_string(id);
      snap.gauges.push_back({prefix + ".eps_spent", session->budget.spent()});
      snap.gauges.push_back(
          {prefix + ".eps_remaining", session->budget.remaining()});
    }
  }

  // Pool telemetry lives in the pool (it may be shared across services);
  // merge it into the scrape under pool.*.
  ThreadPool& pool =
      options_.pool != nullptr ? *options_.pool : ThreadPool::Default();
  const ThreadPool::Stats ps = pool.stats();
  snap.counters.push_back({"pool.tasks_submitted", ps.tasks_submitted});
  snap.counters.push_back({"pool.tasks_executed", ps.tasks_executed});
  snap.counters.push_back({"pool.parallel_fors", ps.parallel_fors});
  snap.counters.push_back({"pool.chunks_executed", ps.chunks_executed});
  snap.gauges.push_back(
      {"pool.queue_depth", static_cast<double>(ps.queue_depth)});
  snap.gauges.push_back({"pool.peak_queue_depth",
                         static_cast<double>(ps.peak_queue_depth)});
  snap.gauges.push_back(
      {"pool.num_threads", static_cast<double>(pool.num_threads())});
  snap.gauges.push_back({"pool.utilization", ps.utilization});
  const obs::LatencyHistogram::Summary task_sum =
      pool.task_histogram().Summarize();
  snap.histograms.push_back({"pool.task_ns", task_sum.count, task_sum.mean_ns,
                             task_sum.max_ns, task_sum.p50_ns, task_sum.p95_ns,
                             task_sum.p99_ns});
  const obs::LatencyHistogram::Summary chunk_sum =
      pool.chunk_histogram().Summarize();
  snap.histograms.push_back({"pool.chunk_ns", chunk_sum.count,
                             chunk_sum.mean_ns, chunk_sum.max_ns,
                             chunk_sum.p50_ns, chunk_sum.p95_ns,
                             chunk_sum.p99_ns});

  // Fault-point counters (process-global registry) under fault.*.
  for (const FaultRegistry::PointCounters& pc :
       FaultRegistry::Global().CountersSnapshot()) {
    snap.counters.push_back({"fault." + pc.point + ".hits", pc.hits});
    snap.counters.push_back({"fault." + pc.point + ".fires", pc.fires});
  }

  // Restore global name order after the merges, so the dump is stable.
  std::sort(snap.counters.begin(), snap.counters.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  std::sort(snap.gauges.begin(), snap.gauges.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  std::sort(snap.histograms.begin(), snap.histograms.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  return snap;
}

std::string QueryService::DumpMetricsJson() const {
  return MetricsSnapshot().ToJson();
}

}  // namespace osdp
