// Tests for the observability subsystem (src/obs/) and its wiring through
// the QueryService:
//
//   * counters are exact under concurrent increment (the property that let
//     the functional admission/cache counters migrate to the registry);
//   * histogram bucket math and nearest-rank percentile extraction pinned
//     against a sorted-vector reference, single- and cross-thread;
//   * the trace ring's memory is bounded and its eviction order is FIFO;
//   * steady-state metric writes allocate nothing (all allocation happens at
//     registration/construction);
//   * the observability ground rule, as a twin experiment: a metrics-enabled
//     service and a metrics-disabled service answer bit-identically — only
//     server_duration_micros (metadata) may differ;
//   * admission_stats()/cache_stats() are thin views over the registry;
//   * telemetry samples deliveries but traces every failure, and a
//     histogram's trace splits accumulation from release within
//     Trace::kMaxEvents;
//   * the scrape surface (MetricsSnapshot/DumpMetricsJson) covers every
//     subsystem, and the OSDP_METRICS=0 escape hatch works.
//
// This suite runs in the CI TSan and ASan+UBSan jobs alongside the
// query_service concurrency suites.

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/benchdata/table_gen.h"
#include "src/common/fault.h"
#include "src/core/engine.h"
#include "src/data/predicate.h"
#include "src/hist/histogram_query.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/policy/policy.h"
#include "src/runtime/query_service.h"
#include "src/runtime/thread_pool.h"

// Global allocation counter for the zero-allocation property. Counting only
// (the semantics stay malloc/free); sized and array forms forward so every
// path is covered. GCC flags the malloc-backed replacement new against the
// free-backed replacement delete once inlining exposes the malloc — the pair
// is consistent, so the warning is noise here.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace osdp {
namespace {

using obs::LatencyHistogram;

// ------------------------------------------------------------- primitives ---

TEST(CounterTest, ExactUnderConcurrentIncrement) {
  constexpr int kThreads = 8;
  constexpr uint64_t kIncrements = 100000;
  obs::Counter counter;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (uint64_t i = 0; i < kIncrements; ++i) counter.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * kIncrements);
}

TEST(GaugeTest, SetMaxIsAHighWaterMarkUnderConcurrency) {
  obs::Gauge gauge;
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 10000; ++i) {
        gauge.SetMax(static_cast<double>(t * 10000 + i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(gauge.value(), static_cast<double>(kThreads * 10000 - 1));
}

TEST(LatencyHistogramTest, BucketMathIsMonotoneAndBoundsItsValues) {
  // Exact below 16.
  for (uint64_t v = 0; v < LatencyHistogram::kSubBuckets; ++v) {
    EXPECT_EQ(LatencyHistogram::BucketFor(v), static_cast<size_t>(v));
    EXPECT_EQ(LatencyHistogram::BucketLowerBound(v), v);
    EXPECT_EQ(LatencyHistogram::BucketUpperBound(v), v);
  }
  // Monotone, bounds bracket the value, width <= lower/16 (6.25% relative).
  size_t prev_bucket = 0;
  uint64_t x = 0x9E3779B97F4A7C15ull;
  std::vector<uint64_t> probes = {15, 16, 17, 31, 32, 33, 1023, 1024, 1025};
  for (int i = 0; i < 2000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    probes.push_back(x % (1ull << 41));  // includes beyond-clamp values
  }
  std::sort(probes.begin(), probes.end());
  for (uint64_t v : probes) {
    const size_t b = LatencyHistogram::BucketFor(v);
    EXPECT_GE(b, prev_bucket) << "BucketFor not monotone at " << v;
    prev_bucket = b;
    EXPECT_LT(b, LatencyHistogram::kNumBuckets);
    const uint64_t lo = LatencyHistogram::BucketLowerBound(b);
    const uint64_t hi = LatencyHistogram::BucketUpperBound(b);
    EXPECT_LE(lo, hi);
    if (v < (1ull << (LatencyHistogram::kMaxOctave + 1))) {
      EXPECT_LE(lo, v);
      EXPECT_GE(hi, v);
      if (v >= LatencyHistogram::kSubBuckets) {
        EXPECT_LE(hi - lo + 1, std::max<uint64_t>(1, lo / 16))
            << "bucket " << b << " wider than 6.25% at " << v;
      }
    } else {
      // Clamped into the top bucket.
      EXPECT_EQ(b, LatencyHistogram::kNumBuckets - 1);
    }
  }
}

// Nearest-rank reference over the raw samples; the histogram must report
// exactly the inclusive upper bound of the reference sample's bucket.
void CheckPercentilesAgainstReference(const LatencyHistogram& hist,
                                      std::vector<uint64_t> samples) {
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  for (double p : {1.0, 10.0, 25.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0}) {
    const double exact = p / 100.0 * n;
    size_t rank = static_cast<size_t>(exact);
    if (static_cast<double>(rank) < exact) ++rank;
    rank = std::max<size_t>(1, std::min(rank, samples.size()));
    const uint64_t ref = samples[rank - 1];
    const uint64_t reported = hist.ValueAtPercentile(p);
    EXPECT_EQ(reported, LatencyHistogram::BucketUpperBound(
                            LatencyHistogram::BucketFor(ref)))
        << "p" << p << ": reference sample " << ref;
    EXPECT_GE(reported, ref) << "p" << p << " under-reports";
    EXPECT_LE(reported, ref + std::max<uint64_t>(1, ref / 16))
        << "p" << p << " off by more than a bucket width";
  }
}

TEST(LatencyHistogramTest, PercentilesMatchSortedVectorReference) {
  LatencyHistogram hist;
  std::vector<uint64_t> samples;
  uint64_t x = 0xDEADBEEFCAFEF00Dull;
  for (int i = 0; i < 5000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const uint64_t v = x % 3000000;  // 0 .. 3ms in ns
    samples.push_back(v);
    hist.Record(v);
  }
  const LatencyHistogram::Summary sum = hist.Summarize();
  EXPECT_EQ(sum.count, samples.size());
  EXPECT_EQ(sum.max_ns, *std::max_element(samples.begin(), samples.end()));
  double mean = 0.0;
  for (uint64_t v : samples) mean += static_cast<double>(v);
  mean /= static_cast<double>(samples.size());
  EXPECT_NEAR(sum.mean_ns, mean, 1e-6);
  CheckPercentilesAgainstReference(hist, samples);
}

TEST(LatencyHistogramTest, CrossThreadRecordsMergeExactly) {
  LatencyHistogram hist;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 4000;
  const auto sample = [](int t, int i) {
    uint64_t x = 0xABCD + static_cast<uint64_t>(t) * 7919 +
                 static_cast<uint64_t>(i);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x % 5000000;
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) hist.Record(sample(t, i));
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<uint64_t> all;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) all.push_back(sample(t, i));
  }
  EXPECT_EQ(hist.Summarize().count, all.size());
  CheckPercentilesAgainstReference(hist, all);
}

// ------------------------------------------------------------------ traces ---

TEST(TraceRingTest, BoundedMemoryAndFifoEviction) {
  constexpr size_t kCapacity = 8;
  obs::TraceRing ring(kCapacity);
  EXPECT_EQ(ring.capacity(), kCapacity);
  EXPECT_TRUE(ring.Snapshot().empty());
  for (uint64_t i = 0; i < 100; ++i) {
    obs::Trace t;
    t.seq = i;
    ring.Push(t);
  }
  EXPECT_EQ(ring.pushed(), 100u);
  const std::vector<obs::Trace> live = ring.Snapshot();
  ASSERT_EQ(live.size(), kCapacity);
  for (size_t i = 0; i < kCapacity; ++i) {
    EXPECT_EQ(live[i].seq, 100 - kCapacity + i) << "not oldest-first FIFO";
  }
}

TEST(TraceSpanTest, EventCountIsCappedAtMaxEvents) {
  obs::TraceRing ring(4);
  obs::TraceSpan span(7, 42, 3);
  for (int i = 0; i < 20; ++i) {
    span.Add(obs::Stage::kScan, static_cast<uint64_t>(i));
  }
  EXPECT_EQ(span.trace().num_events, obs::Trace::kMaxEvents);
  span.Finish(0, ring, span.trace().start_ns + 5);
  const std::vector<obs::Trace> live = ring.Snapshot();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].session, 7u);
  EXPECT_EQ(live[0].seq, 42u);
  EXPECT_EQ(live[0].generation, 3u);
  EXPECT_EQ(live[0].total_ns, 5u);
}

TEST(TraceRingTest, DumpsRenderEveryLiveTrace) {
  obs::TraceRing ring(4);
  obs::TraceSpan span(1, 2, 3);
  span.Add(obs::Stage::kAdmit, 10);
  span.Mark(obs::Stage::kDeliver, span.trace().start_ns + 25);
  span.Finish(0, ring, span.trace().start_ns + 25);
  const std::string text = ring.DumpText();
  EXPECT_NE(text.find("admit"), std::string::npos);
  EXPECT_NE(text.find("deliver"), std::string::npos);
  const std::string json = ring.DumpJson();
  EXPECT_NE(json.find("\"seq\""), std::string::npos);
  EXPECT_NE(json.find("\"stages\""), std::string::npos);
}

// -------------------------------------------------------------- allocation ---

TEST(MetricsAllocationTest, SteadyStateWritesAllocateNothing) {
  // Registration and ring construction allocate; after that, counters,
  // gauges, histogram records, spans, and ring pushes must not — the
  // enabled-path hot-loop property (and a fortiori the disabled path, which
  // does strictly less).
  obs::MetricsRegistry registry(true);
  obs::Counter* counter = registry.GetCounter("c");
  obs::Gauge* gauge = registry.GetGauge("g");
  obs::LatencyHistogram* hist = registry.GetHistogram("h");
  obs::TraceRing ring(64);

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (uint64_t i = 0; i < 50000; ++i) {
    counter->Increment();
    gauge->Set(static_cast<double>(i));
    gauge->SetMax(static_cast<double>(i));
    hist->Record(i % 1000000);
    obs::TraceSpan span(1, i, 1);
    span.Add(obs::Stage::kAdmit, 3);
    span.Mark(obs::Stage::kScan, span.trace().start_ns + 11);
    span.Finish(0, ring, span.trace().start_ns + 11);
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before)
      << "steady-state metric writes allocated";
  EXPECT_EQ(counter->value(), 50000u);
  EXPECT_EQ(hist->Summarize().count, 50000u);
  EXPECT_EQ(ring.pushed(), 50000u);
}

// ------------------------------------------------------------ service twins ---

Policy TestPolicy() {
  return Policy::SensitiveWhen(
      Predicate::Or(Predicate::Eq("opt_in", Value(0)),
                    Predicate::Lt("age", Value(18))),
      "opt_out_or_minor");
}

OsdpEngine TestEngine(size_t rows = 2000) {
  CensusTableOptions topts;
  topts.num_rows = rows;
  topts.seed = 0x9A;
  OsdpEngine::Options opts;
  opts.total_epsilon = 100.0;
  return *OsdpEngine::Create(MakeCensusTable(topts), TestPolicy(), opts);
}

std::vector<ServiceRequest> TwinBatch() {
  const Domain1D age_domain = *Domain1D::Numeric(0, 100, 16);
  std::vector<ServiceRequest> batch;
  batch.emplace_back(CountRequest{Predicate::Le("age", Value(40)), 0.05});
  batch.emplace_back(CountRequest{Predicate::Le("age", Value(40)), 0.05});
  batch.emplace_back(
      HistogramRequest{HistogramQuery{"age", age_domain, std::nullopt}, 0.05,
                       EngineMechanism::kOsdpLaplaceL1});
  batch.emplace_back(
      HistogramRequest{HistogramQuery{"age", age_domain,
                                      Predicate::Eq("opt_in", Value(1))},
                       0.05, EngineMechanism::kOsdpLaplaceL1});
  return batch;
}

std::unique_ptr<QueryService> TwinService(ThreadPool* pool,
                                          bool metrics_enabled) {
  QueryService::Options opts;
  opts.pool = pool;
  opts.per_session_epsilon = 10.0;
  opts.seed = 0x717;
  opts.mask_cache_bytes = 8ull << 20;
  opts.metrics_enabled = metrics_enabled;
  return *QueryService::Create(TestEngine(), opts);
}

TEST(MetricsTwinTest, MetricsOnAndOffAnswerBitIdentically) {
  ThreadPool pool_on(2), pool_off(2);
  auto on = TwinService(&pool_on, true);
  auto off = TwinService(&pool_off, false);
  EXPECT_TRUE(on->metrics_registry().enabled());
  EXPECT_FALSE(off->metrics_registry().enabled());

  // Same ingest stream, then identical (session, seq) query streams.
  CensusTableOptions bopts;
  bopts.num_rows = 57;
  bopts.seed = 0xB0;
  const Table extra = MakeCensusTable(bopts);
  ASSERT_TRUE(on->Ingest(extra).ok());
  ASSERT_TRUE(off->Ingest(extra).ok());
  const auto s_on = on->OpenSession("twin");
  const auto s_off = off->OpenSession("twin");
  ASSERT_EQ(s_on, s_off) << "twin session ids diverged";

  const std::vector<ServiceRequest> batch = TwinBatch();
  for (int round = 0; round < 3; ++round) {
    const auto a = on->AnswerBatch(s_on, batch);
    const auto b = off->AnswerBatch(s_off, batch);
    ASSERT_EQ(a.size(), b.size());
    for (size_t q = 0; q < a.size(); ++q) {
      ASSERT_TRUE(a[q].ok()) << a[q].status().ToString();
      ASSERT_TRUE(b[q].ok()) << b[q].status().ToString();
      // Every answer bit must match; server_duration_micros is the one
      // field allowed to differ (it is metadata, stamped after the bits).
      EXPECT_EQ(a[q]->count, b[q]->count) << "round " << round << " q " << q;
      EXPECT_EQ(a[q]->generation, b[q]->generation);
      EXPECT_EQ(a[q]->seq, b[q]->seq);
      // cache_hit is deterministic once the predicates are warm; in round 0
      // the duplicated predicate's hit/miss depends on which concurrent
      // query scans first (the answers are bit-identical either way).
      if (round > 0) {
        EXPECT_EQ(a[q]->cache_hit, b[q]->cache_hit)
            << "round " << round << " q " << q;
      }
      ASSERT_EQ(a[q]->histogram.has_value(), b[q]->histogram.has_value());
      if (a[q]->histogram.has_value()) {
        EXPECT_EQ(a[q]->histogram->counts(), b[q]->histogram->counts());
      }
      EXPECT_GT(a[q]->server_duration_micros, 0.0);
      EXPECT_GT(b[q]->server_duration_micros, 0.0);
    }
  }

  // Telemetry side effects land only on the enabled twin.
  EXPECT_GT(on->trace_ring().pushed(), 0u);
  EXPECT_EQ(off->trace_ring().pushed(), 0u);
  const obs::MetricsSnapshot off_snap = off->MetricsSnapshot();
  const auto* off_query = off_snap.FindHistogram("service.query_ns");
  ASSERT_NE(off_query, nullptr);
  EXPECT_EQ(off_query->count, 0u) << "disabled twin recorded latencies";
  // Functional counters stay live on both twins regardless of the gate.
  // (Exact hit/miss splits can differ by the round-0 race above, so assert
  // liveness per twin, and admitted-batch totals, which are deterministic.)
  EXPECT_EQ(on->admission_stats().admitted, off->admission_stats().admitted);
  EXPECT_GT(on->cache_stats().hits, 0u);
  EXPECT_GT(off->cache_stats().hits, 0u);
  EXPECT_GT(on->cache_stats().misses, 0u);
  EXPECT_GT(off->cache_stats().misses, 0u);
}

TEST(MetricsServiceTest, AdmissionAndCacheStatsAreRegistryViews) {
  ThreadPool pool(0);
  auto service = TwinService(&pool, true);
  const auto session = service->OpenSession("a");
  const std::vector<ServiceRequest> batch = TwinBatch();
  for (int i = 0; i < 2; ++i) service->AnswerBatch(session, batch);

  const obs::MetricsSnapshot snap = service->MetricsSnapshot();
  const QueryService::AdmissionStats admission = service->admission_stats();
  const MaskCache::Stats cache = service->cache_stats();

  const auto* admitted = snap.FindCounter("service.batches_admitted");
  const auto* rejected = snap.FindCounter("service.batches_rejected");
  const auto* hits = snap.FindCounter("cache.hits");
  const auto* misses = snap.FindCounter("cache.misses");
  const auto* evictions = snap.FindCounter("cache.evictions");
  ASSERT_NE(admitted, nullptr);
  ASSERT_NE(rejected, nullptr);
  ASSERT_NE(hits, nullptr);
  ASSERT_NE(misses, nullptr);
  ASSERT_NE(evictions, nullptr);
  EXPECT_EQ(admission.admitted, admitted->value);
  EXPECT_EQ(admission.rejected, rejected->value);
  EXPECT_EQ(cache.hits, hits->value);
  EXPECT_EQ(cache.misses, misses->value);
  EXPECT_EQ(cache.evictions, evictions->value);
  EXPECT_EQ(admission.admitted, 2u);
  EXPECT_GT(cache.hits, 0u);
}

// Every stage of `trace`, in recorded order.
std::vector<obs::Stage> StagesOf(const obs::Trace& trace) {
  std::vector<obs::Stage> stages;
  for (size_t e = 0; e < trace.num_events; ++e) {
    stages.push_back(trace.events[e].stage);
  }
  return stages;
}

TEST(MetricsServiceTest, HistogramTracesSplitAccumulateFromMechanism) {
  // A filtered histogram runs the longest timeline there is: admit,
  // validate, reserve, cache lookup or scan (never both), accumulate,
  // mechanism, budget charge, deliver — exactly Trace::kMaxEvents, none
  // dropped. A service's first query is always traced; repeats are traced
  // one in many, so ask until a second (cache-hit) trace lands.
  ThreadPool pool(0);
  auto service = TwinService(&pool, true);
  const auto session = service->OpenSession("a");
  const HistogramQuery query{"age", *Domain1D::Numeric(0, 100, 16),
                             Predicate::Eq("opt_in", Value(1))};
  for (int i = 0; i < 1000 && service->trace_ring().pushed() < 2; ++i) {
    ASSERT_TRUE(service
                    ->AnswerHistogram(session, query, 1e-3,
                                      EngineMechanism::kDawaz)
                    .ok());
  }
  const std::vector<obs::Trace> traces = service->trace_ring().Snapshot();
  ASSERT_EQ(traces.size(), 2u);
  using S = obs::Stage;
  const std::vector<S> miss = {S::kAdmit,      S::kValidate,  S::kReserve,
                               S::kScan,       S::kAccumulate, S::kMechanism,
                               S::kBudgetCharge, S::kDeliver};
  const std::vector<S> hit = {S::kAdmit,      S::kValidate,    S::kReserve,
                              S::kCacheLookup, S::kAccumulate, S::kMechanism,
                              S::kBudgetCharge, S::kDeliver};
  ASSERT_EQ(miss.size(), obs::Trace::kMaxEvents);
  EXPECT_TRUE(traces[0].is_histogram);
  EXPECT_FALSE(traces[0].cache_hit);
  EXPECT_EQ(StagesOf(traces[0]), miss);
  EXPECT_TRUE(traces[1].cache_hit);
  EXPECT_EQ(StagesOf(traces[1]), hit);
  EXPECT_NE(service->trace_ring().DumpText().find("accumulate="),
            std::string::npos);

  const obs::MetricsSnapshot snap = service->MetricsSnapshot();
  const auto* accumulate = snap.FindHistogram("service.accumulate_ns");
  const auto* mechanism = snap.FindHistogram("service.mechanism_ns");
  ASSERT_NE(accumulate, nullptr);
  ASSERT_NE(mechanism, nullptr);
  EXPECT_EQ(accumulate->count, 2u);
  EXPECT_EQ(mechanism->count, 2u);
}

TEST(MetricsServiceTest, TelemetrySamplesDeliveriesAndTracesEveryFailure) {
  ThreadPool pool(0);
  auto service = TwinService(&pool, true);
  const auto session = service->OpenSession("a");
  std::vector<ServiceRequest> batch;
  for (int i = 0; i < 256; ++i) {
    batch.emplace_back(CountRequest{Predicate::Le("age", Value(40)), 1e-3});
  }
  for (const auto& r : service->AnswerBatch(session, batch)) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  const uint64_t sampled = service->trace_ring().pushed();
  EXPECT_GE(sampled, 1u) << "the service's first query is always traced";
  EXPECT_LT(sampled, 32u) << "every query traced: telemetry is not sampled";
  const obs::MetricsSnapshot snap = service->MetricsSnapshot();
  EXPECT_EQ(snap.FindCounter("service.queries_delivered")->value, 256u);
  EXPECT_EQ(snap.FindHistogram("service.query_ns")->count, sampled);

  // Failed queries are all counted and all traced, sampled or not.
  CountRequest late{Predicate::Le("age", Value(40)), 1e-3};
  late.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  const std::vector<ServiceRequest> failing(40, late);
  for (const auto& r : service->AnswerBatch(session, failing)) {
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  }
  EXPECT_EQ(service->trace_ring().pushed(), sampled + failing.size());
  const obs::Trace last = service->trace_ring().Snapshot().back();
  EXPECT_EQ(last.status_code, static_cast<int>(StatusCode::kDeadlineExceeded));
  EXPECT_EQ(service->MetricsSnapshot()
                .FindCounter("service.queries_deadline_exceeded")
                ->value,
            failing.size());
}

TEST(MetricsServiceTest, AggregateMemoCountersAreRegistryViews) {
  ThreadPool pool(0);
  auto service = TwinService(&pool, true);
  const auto session = service->OpenSession("a");
  for (int i = 0; i < 3; ++i) service->AnswerBatch(session, TwinBatch());
  const MaskCache::Stats cache = service->cache_stats();
  const obs::MetricsSnapshot snap = service->MetricsSnapshot();
  const auto* hits = snap.FindCounter("cache.aggregate_hits");
  const auto* misses = snap.FindCounter("cache.aggregate_misses");
  ASSERT_NE(hits, nullptr);
  ASSERT_NE(misses, nullptr);
  EXPECT_EQ(cache.aggregate_hits, hits->value);
  EXPECT_EQ(cache.aggregate_misses, misses->value);
  // One count (asked twice per batch) and one x_ns histogram over WHERE
  // clauses; the unfiltered histogram has no entry to hold its aggregate.
  EXPECT_EQ(cache.aggregate_misses, 2u);
  EXPECT_EQ(cache.aggregate_hits, 3u * 3u - 2u);
}

TEST(MetricsServiceTest, DumpCoversEverySubsystem) {
  ThreadPool pool(2);
  auto service = TwinService(&pool, true);
  const auto session = service->OpenSession("a");
  CensusTableOptions bopts;
  bopts.num_rows = 30;
  bopts.seed = 0xB1;
  ASSERT_TRUE(service->Ingest(MakeCensusTable(bopts)).ok());
  // A never-firing schedule registers the point so fault.* has a row.
  ScopedFault armed("query/execute", {1ull << 60, 0, 1});
  service->AnswerBatch(session, TwinBatch());

  const std::string json = service->DumpMetricsJson();
  for (const char* key :
       {"\"counters\"", "\"gauges\"", "\"histograms\"",
        "service.queries_delivered", "service.query_ns", "service.batch_ns",
        "service.validate_ns", "service.reserve_ns", "cache.hits",
        "cache.bytes", "pool.tasks_submitted", "pool.utilization",
        "pool.task_ns", "ingest.batches", "ingest.generation",
        "budget.service_remaining_eps", "budget.ledger_entries",
        "budget.session.", "fault.query/execute.hits"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing";
  }

  const obs::MetricsSnapshot snap = service->MetricsSnapshot();
  const auto* delivered = snap.FindCounter("service.queries_delivered");
  ASSERT_NE(delivered, nullptr);
  EXPECT_EQ(delivered->value, TwinBatch().size());
  const auto* generation = snap.FindGauge("ingest.generation");
  ASSERT_NE(generation, nullptr);
  EXPECT_EQ(generation->value, 1.0);
  const auto* ledger = snap.FindGauge("budget.ledger_entries");
  ASSERT_NE(ledger, nullptr);
  EXPECT_EQ(ledger->value, static_cast<double>(TwinBatch().size()));
  // Per-session budget gauges are computed at scrape time.
  const auto* spent = snap.FindGauge("budget.session." +
                                     std::to_string(session) + ".eps_spent");
  ASSERT_NE(spent, nullptr);
  EXPECT_NEAR(spent->value, 0.05 * static_cast<double>(TwinBatch().size()),
              1e-12);
}

TEST(MetricsServiceTest, ClosedSessionsLeaveTheScrape) {
  // Per-session budget cells are merged into each scrape from the live
  // sessions, so a closed session's last ε is not reported again.
  ThreadPool pool(2);
  auto service = TwinService(&pool, true);
  const auto closed = service->OpenSession("closed");
  const auto live = service->OpenSession("live");
  service->AnswerBatch(closed, TwinBatch());
  service->AnswerBatch(live, TwinBatch());
  const std::string closed_prefix =
      "budget.session." + std::to_string(closed);
  ASSERT_NE(service->MetricsSnapshot().FindGauge(closed_prefix + ".eps_spent"),
            nullptr);

  ASSERT_TRUE(service->CloseSession(closed).ok());
  const obs::MetricsSnapshot snap = service->MetricsSnapshot();
  EXPECT_EQ(snap.FindGauge(closed_prefix + ".eps_spent"), nullptr);
  EXPECT_EQ(snap.FindGauge(closed_prefix + ".eps_remaining"), nullptr);
  EXPECT_EQ(service->DumpMetricsJson().find(closed_prefix + "."),
            std::string::npos);

  const std::string live_prefix = "budget.session." + std::to_string(live);
  const auto* spent = snap.FindGauge(live_prefix + ".eps_spent");
  const auto* remaining = snap.FindGauge(live_prefix + ".eps_remaining");
  ASSERT_NE(spent, nullptr);
  ASSERT_NE(remaining, nullptr);
  EXPECT_NEAR(spent->value, 0.05 * static_cast<double>(TwinBatch().size()),
              1e-12);
  EXPECT_EQ(remaining->value, *service->session_remaining(live));
  // The merged gauges keep the snapshot in global name order.
  EXPECT_TRUE(std::is_sorted(
      snap.gauges.begin(), snap.gauges.end(),
      [](const auto& a, const auto& b) { return a.name < b.name; }));
}

// ------------------------------------------------ scrape JSON validity ---

// Minimal recursive-descent JSON validator (objects, arrays, strings with
// escapes, numbers, true/false/null) — enough grammar to reject the bare
// `inf`/`nan` tokens %.17g produces for non-finite doubles, which no JSON
// parser accepts.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& s) : s_(s) {}
  bool Valid() {
    pos_ = 0;
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') return ++pos_, true;
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') return ++pos_, true;
      return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') return ++pos_, true;
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') return ++pos_, true;
      return false;
    }
  }
  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || std::isxdigit(s_[pos_]) == 0) return false;
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    if (std::isdigit(Peek()) == 0) return false;
    while (std::isdigit(Peek()) != 0) ++pos_;
    if (Peek() == '.') {
      ++pos_;
      if (std::isdigit(Peek()) == 0) return false;
      while (std::isdigit(Peek()) != 0) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      if (std::isdigit(Peek()) == 0) return false;
      while (std::isdigit(Peek()) != 0) ++pos_;
    }
    return pos_ > start;
  }
  bool Literal(const char* lit) {
    const std::string l(lit);
    if (s_.compare(pos_, l.size(), l) != 0) return false;
    pos_ += l.size();
    return true;
  }
  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

TEST(MetricsSnapshotTest, ToJsonStaysParsableWithNonFiniteGauges) {
  // Budget ε gauges can legitimately be ±inf (and a 0/0 ratio NaN); the
  // scrape must stay machine-readable regardless. Pre-fix, FormatDouble
  // printed bare `inf`/`nan` into the gauge map and this test fails.
  obs::MetricsRegistry registry;
  registry.GetGauge("budget.remaining_eps")
      ->Set(std::numeric_limits<double>::infinity());
  registry.GetGauge("budget.debt_eps")
      ->Set(-std::numeric_limits<double>::infinity());
  registry.GetGauge("cache.hit_ratio")
      ->Set(std::numeric_limits<double>::quiet_NaN());
  registry.GetGauge("ingest.generation")->Set(3.0);
  registry.GetCounter("service.queries")->Increment(7);
  registry.GetHistogram("service.query_ns")->Record(1234);

  const std::string json = registry.Snapshot().ToJson();
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  EXPECT_NE(json.find("\"budget.remaining_eps\": null"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"budget.debt_eps\": null"), std::string::npos);
  EXPECT_NE(json.find("\"cache.hit_ratio\": null"), std::string::npos);
  EXPECT_NE(json.find("\"ingest.generation\": 3"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  // The finite-path spelling is untouched, and ToText (no grammar to break)
  // keeps the raw non-finite spellings for human eyes.
  EXPECT_NE(registry.Snapshot().ToText().find("inf"), std::string::npos);
}

TEST(MetricsSnapshotTest, ServiceDumpRoundTripsThroughTheValidator) {
  // The full service scrape — every subsystem's counters, gauges, and
  // histogram summaries — must parse end to end, not just the toy registry.
  ThreadPool pool(2);
  auto service = TwinService(&pool, true);
  const auto session = service->OpenSession("a");
  service->AnswerBatch(session, TwinBatch());
  const std::string json = service->DumpMetricsJson();
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
}

TEST(MetricsServiceTest, EnvKillSwitchDisablesTelemetry) {
  EXPECT_TRUE(obs::MetricsEnabledFromEnv());
  ASSERT_EQ(::setenv("OSDP_METRICS", "0", 1), 0);
  EXPECT_FALSE(obs::MetricsEnabledFromEnv());
  {
    ThreadPool pool(0);
    QueryService::Options opts;
    opts.pool = &pool;
    opts.per_session_epsilon = 10.0;
    opts.metrics_enabled = true;  // env wins
    auto service = *QueryService::Create(TestEngine(200), opts);
    EXPECT_FALSE(service->metrics_registry().enabled());
  }
  ASSERT_EQ(::setenv("OSDP_METRICS", "1", 1), 0);
  EXPECT_TRUE(obs::MetricsEnabledFromEnv());
  ASSERT_EQ(::unsetenv("OSDP_METRICS"), 0);
  EXPECT_TRUE(obs::MetricsEnabledFromEnv());
}

}  // namespace
}  // namespace osdp
