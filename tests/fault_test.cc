// Tests for the robustness layer: the deterministic fault-injection registry
// (src/common/fault.h), exception-safe execution through the thread pool and
// QueryService, failure atomicity of the ingest pipeline, and the randomized
// soak — faults × overload × deadlines × concurrent ingest — that pins the
// conservation invariant (ε spent == Σ ε of delivered answers, one ledger
// entry per delivery, every delivered answer bit-identical to serial replay,
// process never dies).
//
// This binary runs in the CI tsan and asan-ubsan jobs alongside
// query_service_test and runtime_test (docs/robustness.md).

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/fault.h"
#include "src/data/predicate.h"
#include "src/hist/histogram_query.h"
#include "src/mech/histogram_mechanism.h"
#include "src/runtime/query_service.h"
#include "src/runtime/thread_pool.h"
#include "tests/serial_replay.h"
#include "tests/service_soak.h"

namespace osdp {
namespace {

bool MentionsPoint(const Status& status, const std::string& point) {
  return status.message().find(point) != std::string::npos;
}

// Every test arms through ScopedFault, but a crashed assertion in a previous
// test of the same binary must not leak an armed point into this one.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Global().DisarmAll(); }
  void TearDown() override { FaultRegistry::Global().DisarmAll(); }
};

// ---------------------------------------------------------- the registry ---

TEST_F(FaultTest, FiresOnTheScheduledHitExactlyOnce) {
  FaultRegistry& reg = FaultRegistry::Global();
  reg.Arm("t/point", {/*fire_on_hit=*/3, /*repeat_every=*/0, /*max_fires=*/1});
  EXPECT_NO_THROW(reg.Hit("t/point"));
  EXPECT_NO_THROW(reg.Hit("t/point"));
  try {
    reg.Hit("t/point");
    FAIL() << "third hit must fire";
  } catch (const InjectedFault& fault) {
    EXPECT_EQ(fault.point, "t/point");
    EXPECT_TRUE(std::string(fault.what()).find("t/point") !=
                std::string::npos);
  }
  // max_fires=1: the schedule is spent; later hits count but never fire.
  EXPECT_NO_THROW(reg.Hit("t/point"));
  EXPECT_NO_THROW(reg.Hit("t/point"));
  EXPECT_EQ(reg.hits("t/point"), 5u);
  EXPECT_EQ(reg.fires("t/point"), 1u);
  reg.Disarm("t/point");
}

TEST_F(FaultTest, RepeatingScheduleFiresAtEveryPeriodUpToMaxFires) {
  FaultRegistry& reg = FaultRegistry::Global();
  reg.Arm("t/rep", {/*fire_on_hit=*/2, /*repeat_every=*/3, /*max_fires=*/2});
  std::vector<uint64_t> fired_at;
  for (uint64_t hit = 1; hit <= 10; ++hit) {
    try {
      reg.Hit("t/rep");
    } catch (const InjectedFault&) {
      fired_at.push_back(hit);
    }
  }
  // Fires at hit 2, then every 3rd after (5, 8, ...) capped at 2 total.
  EXPECT_EQ(fired_at, (std::vector<uint64_t>{2, 5}));
  EXPECT_EQ(reg.fires("t/rep"), 2u);
  reg.Disarm("t/rep");
}

TEST_F(FaultTest, UnarmedPointsNeitherFireNorCount) {
  FaultRegistry& reg = FaultRegistry::Global();
  EXPECT_NO_THROW(reg.Hit("t/unarmed"));
  EXPECT_EQ(reg.hits("t/unarmed"), 0u) << "unarmed hits must cost nothing";
  // Arming any *other* point opens the slow path, but foreign points still
  // pass through without firing.
  reg.Arm("t/other", {1, 0, 1});
  EXPECT_NO_THROW(reg.Hit("t/unarmed"));
  reg.DisarmAll();
}

TEST_F(FaultTest, ScopedFaultDisarmsOnScopeExit) {
  FaultRegistry& reg = FaultRegistry::Global();
  {
    ScopedFault fault("t/scoped", {1, 0, 1});
    EXPECT_THROW(reg.Hit("t/scoped"), InjectedFault);
  }
  EXPECT_NO_THROW(reg.Hit("t/scoped"));
}

TEST_F(FaultTest, ArmResetsCounters) {
  FaultRegistry& reg = FaultRegistry::Global();
  reg.Arm("t/reset", {1, 0, 1});
  EXPECT_THROW(reg.Hit("t/reset"), InjectedFault);
  EXPECT_EQ(reg.fires("t/reset"), 1u);
  reg.Arm("t/reset", {2, 0, 1});
  EXPECT_EQ(reg.hits("t/reset"), 0u);
  EXPECT_EQ(reg.fires("t/reset"), 0u);
  EXPECT_NO_THROW(reg.Hit("t/reset"));
  EXPECT_THROW(reg.Hit("t/reset"), InjectedFault);
  reg.Disarm("t/reset");
}

// -------------------------------------------------- pool exception safety ---

TEST_F(FaultTest, ParallelForBlockedRethrowsInjectedFaultAndPoolSurvives) {
  for (size_t threads : {size_t{0}, size_t{3}}) {
    ThreadPool pool(threads);
    ScopedFault fault("thread_pool/chunk", {/*fire_on_hit=*/5, 0, 1});
    bool caught = false;
    try {
      pool.ParallelForBlocked(0, 16, 1, [](size_t, size_t) {});
    } catch (const InjectedFault& f) {
      caught = true;
      EXPECT_EQ(f.point, "thread_pool/chunk");
    }
    EXPECT_TRUE(caught) << "threads=" << threads;

    // The pool (and for threads>0, all its workers) must survive to run the
    // next loop to completion once the registry is quiet again.
    FaultRegistry::Global().DisarmAll();
    std::vector<int> marks(64, 0);
    pool.ParallelForBlocked(0, marks.size(), 4, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) marks[i] = 1;
    });
    EXPECT_EQ(std::count(marks.begin(), marks.end(), 1),
              static_cast<long>(marks.size()))
        << "threads=" << threads;
  }
}

// ------------------------------------------- QueryService fault battery ---

struct ServiceFixture {
  ThreadPool pool{2};
  std::unique_ptr<QueryService> service;
  QueryService::SessionId session = 0;
  double initial_service_budget = 0.0;
  double initial_session_budget = 0.0;

  explicit ServiceFixture(QueryService::Options opts = {},
                          double total_epsilon = 100.0, size_t rows = 1000) {
    opts.pool = &pool;
    service = *QueryService::Create(CensusEngine(total_epsilon, rows), opts);
    session = service->OpenSession("alice");
    initial_service_budget = service->remaining_budget();
    initial_session_budget = *service->session_remaining(session);
  }

  void ExpectNothingCharged() {
    EXPECT_EQ(service->remaining_budget(), initial_service_budget);
    EXPECT_EQ(*service->session_remaining(session), initial_session_budget);
    EXPECT_EQ(service->ledger().size(), 0u);
  }
};

TEST_F(FaultTest, MaskCacheInsertFaultRefundsAndLeavesCacheIntact) {
  ServiceFixture fix;
  const Predicate pred = Predicate::Le("age", Value(44));
  {
    ScopedFault fault("mask_cache/insert", {1, 0, 1});
    auto result = fix.service->AnswerCount(fix.session, pred, 0.1);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInternal);
    EXPECT_TRUE(MentionsPoint(result.status(), "mask_cache/insert"))
        << result.status().ToString();
    fix.ExpectNothingCharged();
  }
  // The failed insert never touched shard state: the same query now computes
  // again (miss), succeeds, and the repeat hits.
  auto miss = fix.service->AnswerCount(fix.session, pred, 0.1);
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  EXPECT_FALSE(miss->cache_hit);
  auto hit = fix.service->AnswerCount(fix.session, pred, 0.1);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_TRUE(hit->cache_hit);
  EXPECT_EQ(fix.service->ledger().size(), 2u);

  // Sequence numbers are consumed at reservation, so the failed query left a
  // hole: the delivered answers carry seq 1 and 2, and replaying each with
  // its *recorded* seq reproduces it bit for bit.
  EXPECT_EQ(miss->seq, 1u);
  EXPECT_EQ(hit->seq, 2u);
  const SnapshotPtr snap = fix.service->current_snapshot();
  for (const auto* answer : {&*miss, &*hit}) {
    EXPECT_TRUE(SameRelease(
        *answer, *ReplayAnswer(snap->table, snap->non_sensitive,
                               CountRequest{pred, 0.1},
                               QueryService::Options{}.seed, fix.session,
                               answer->seq, answer->generation)))
        << "seq " << answer->seq;
  }
}

TEST_F(FaultTest, SharedLookupInsertFaultFailsOnlyThatClausesSlots) {
  // A batch's clauses are looked up together and inserted in slot order.
  // The second insert fires: both slots of that clause fail and refund; the
  // other clauses deliver and are charged.
  ServiceFixture fix;
  constexpr double kEps = 0.05;
  const Predicate a = Predicate::Le("age", Value(30));
  const Predicate b = Predicate::Gt("income", Value(40000.0));
  const Predicate c = Predicate::Ge("zip", Value(5000));
  std::vector<ServiceRequest> batch;
  for (const Predicate* p : {&a, &b, &c, &b}) {
    batch.emplace_back(CountRequest{*p, kEps});
  }
  std::vector<Result<ServiceAnswer>> results;
  {
    ScopedFault fault("mask_cache/insert", {/*fire_on_hit=*/2, 0, 1});
    results = fix.service->AnswerBatch(fix.session, batch);
  }
  for (size_t i : {1, 3}) {
    ASSERT_FALSE(results[i].ok()) << "slot " << i;
    EXPECT_EQ(results[i].status().code(), StatusCode::kInternal);
    EXPECT_TRUE(MentionsPoint(results[i].status(), "mask_cache/insert"))
        << results[i].status().ToString();
  }
  for (size_t i : {0, 2}) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
  }
  EXPECT_NEAR(fix.initial_service_budget - fix.service->remaining_budget(),
              2 * kEps, 1e-12);
  EXPECT_NEAR(fix.initial_session_budget -
                  *fix.service->session_remaining(fix.session),
              2 * kEps, 1e-12);
  EXPECT_EQ(fix.service->ledger().size(), 2u);
  EXPECT_EQ(fix.service->cache_stats().entries, 2u);
  // The failed clause stored nothing: asked again, it misses and delivers.
  auto retry = fix.service->AnswerCount(fix.session, b, kEps);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_FALSE(retry->cache_hit);
}

TEST_F(FaultTest, MaskCacheAttachFaultRefundsAndLeavesEntryUsable) {
  // The fault fires after the count and the x_ns histogram of a cached WHERE
  // clause were computed, before either is stored on the entry. Each query
  // refunds in full; the entry keeps its mask (the retries hit) and the
  // retries compute, store and replay their aggregates.
  ServiceFixture fix;
  const Predicate pred = Predicate::Le("age", Value(44));
  const HistogramQuery query{"age", *Domain1D::Numeric(0, 100, 16), pred};
  {
    ScopedFault fault("mask_cache/attach", {1, 1, 2});
    auto count = fix.service->AnswerCount(fix.session, pred, 0.1);
    ASSERT_FALSE(count.ok());
    EXPECT_TRUE(MentionsPoint(count.status(), "mask_cache/attach"))
        << count.status().ToString();
    auto hist = fix.service->AnswerHistogram(fix.session, query, 0.1,
                                             EngineMechanism::kOsdpLaplaceL1);
    ASSERT_FALSE(hist.ok());
    EXPECT_TRUE(MentionsPoint(hist.status(), "mask_cache/attach"))
        << hist.status().ToString();
    fix.ExpectNothingCharged();
  }
  EXPECT_EQ(fix.service->cache_stats().entries, 1u);
  const SnapshotPtr snap = fix.service->current_snapshot();
  const auto replays = [&](const ServiceAnswer& answer,
                           const ServiceRequest& request) {
    return SameRelease(
        answer, *ReplayAnswer(snap->table, snap->non_sensitive, request,
                              QueryService::Options{}.seed, fix.session,
                              answer.seq, answer.generation));
  };
  for (int repeat = 0; repeat < 2; ++repeat) {
    auto count = fix.service->AnswerCount(fix.session, pred, 0.1);
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    EXPECT_TRUE(count->cache_hit);
    EXPECT_TRUE(replays(*count, CountRequest{pred, 0.1}));
    auto hist = fix.service->AnswerHistogram(fix.session, query, 0.1,
                                             EngineMechanism::kOsdpLaplaceL1);
    ASSERT_TRUE(hist.ok()) << hist.status().ToString();
    EXPECT_TRUE(replays(
        *hist, HistogramRequest{query, 0.1, EngineMechanism::kOsdpLaplaceL1}));
  }
  const MaskCache::Stats stats = fix.service->cache_stats();
  EXPECT_EQ(stats.aggregate_misses, 4u);  // two faulted, two stored
  EXPECT_EQ(stats.aggregate_hits, 2u);
}

TEST_F(FaultTest, MechanismRunFaultRefundsInFull) {
  ServiceFixture fix;
  const Domain1D domain = *Domain1D::Numeric(0, 100, 16);
  ScopedFault fault("mechanism/run", {1, 0, 1});
  auto result = fix.service->AnswerHistogram(
      fix.session, HistogramQuery{"age", domain, std::nullopt}, 0.1,
      EngineMechanism::kOsdpLaplaceL1);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(MentionsPoint(result.status(), "mechanism/run"))
      << result.status().ToString();
  fix.ExpectNothingCharged();
}

TEST_F(FaultTest, QueryExecuteFaultRefundsInFull) {
  ServiceFixture fix;
  ScopedFault fault("query/execute", {1, 0, 1});
  auto result = fix.service->AnswerCount(fix.session, Predicate::True(), 0.1);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(MentionsPoint(result.status(), "query/execute"))
      << result.status().ToString();
  fix.ExpectNothingCharged();
}

TEST_F(FaultTest, OneQuerysFaultDoesNotKillTheBatch) {
  ServiceFixture fix;
  constexpr double kEps = 0.05;
  std::vector<ServiceRequest> batch;
  for (int q = 0; q < 4; ++q) {
    batch.emplace_back(
        CountRequest{Predicate::Le("age", Value(20 + 10 * q)), kEps});
  }
  // Exactly one execution (whichever reaches the point second under the
  // racing pool — the *count* is deterministic even though the victim is
  // not) fails; the other three deliver and are charged.
  ScopedFault fault("query/execute", {/*fire_on_hit=*/2, 0, /*max_fires=*/1});
  const auto results = fix.service->AnswerBatch(fix.session, batch);
  size_t delivered = 0;
  for (const auto& r : results) {
    if (r.ok()) {
      ++delivered;
    } else {
      EXPECT_TRUE(MentionsPoint(r.status(), "query/execute"))
          << r.status().ToString();
    }
  }
  EXPECT_EQ(delivered, 3u);
  EXPECT_NEAR(fix.initial_service_budget - fix.service->remaining_budget(),
              delivered * kEps, 1e-12);
  EXPECT_NEAR(fix.initial_session_budget -
                  *fix.service->session_remaining(fix.session),
              delivered * kEps, 1e-12);
  EXPECT_EQ(fix.service->ledger().size(), delivered);
}

TEST_F(FaultTest, BatchChunkFaultRefundsEveryUnexecutedSlot) {
  // The fault fires in the *batch-level* pool chunk itself (before any
  // per-query try/catch): ParallelForBlocked rethrows it in AnswerBatch,
  // which converts it to per-slot errors — and every reservation already
  // taken for a slot that never executed is refunded by destruction. The
  // clauses are answered once first, so the batch's lookup and counts scan
  // nothing and the first chunk to run is the execution loop's. Each failed
  // slot still leaves through Finish, which counts it.
  ServiceFixture fix;
  std::vector<ServiceRequest> batch;
  for (int q = 0; q < 6; ++q) {
    batch.emplace_back(
        CountRequest{Predicate::Le("age", Value(25 + 5 * q)), 0.05});
  }
  for (const auto& r : fix.service->AnswerBatch(fix.session, batch)) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  const double warm_budget = fix.service->remaining_budget();
  ScopedFault fault("thread_pool/chunk", {/*fire_on_hit=*/1, 0, 1});
  const auto results = fix.service->AnswerBatch(fix.session, batch);
  size_t delivered = 0;
  for (const auto& r : results) {
    if (r.ok()) {
      ++delivered;
    } else {
      EXPECT_TRUE(MentionsPoint(r.status(), "batch chunk failed"))
          << r.status().ToString();
    }
  }
  EXPECT_LT(delivered, batch.size());
  EXPECT_NEAR(warm_budget - fix.service->remaining_budget(), delivered * 0.05,
              1e-12);
  EXPECT_EQ(fix.service->ledger().size(), batch.size() + delivered);
  EXPECT_EQ(fix.service->MetricsSnapshot()
                .FindCounter("service.queries_failed")
                ->value,
            batch.size() - delivered);
}

// ------------------------------------------------- ingest failure windows ---

TEST_F(FaultTest, IngestAppendFaultDropsTheBatchWhole) {
  ServiceFixture fix;
  const size_t rows_before = fix.service->num_rows();
  {
    ScopedFault fault("ingest/append", {1, 0, 1});
    auto result = fix.service->Ingest(CensusRows(64, 0xA1));
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(MentionsPoint(result.status(), "ingest/append"))
        << result.status().ToString();
  }
  // Nothing published, nothing appended: the failed batch's rows are gone.
  EXPECT_EQ(fix.service->current_generation(), 0u);
  EXPECT_EQ(fix.service->num_rows(), rows_before);
  auto next = fix.service->Ingest(CensusRows(50, 0xA2));
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(*next, 1u);
  EXPECT_EQ(fix.service->num_rows(), rows_before + 50);
}

TEST_F(FaultTest, IngestPublishFaultDefersRowsToTheNextGeneration) {
  QueryService::Options opts;
  opts.per_session_epsilon = 2000.0;  // room for the huge-ε pinning query
  ServiceFixture fix(opts, /*total_epsilon=*/10000.0);
  const size_t rows_before = fix.service->num_rows();
  {
    ScopedFault fault("ingest/publish", {1, 0, 1});
    auto result = fix.service->Ingest(CensusRows(64, 0xB1));
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(MentionsPoint(result.status(), "ingest/publish"))
        << result.status().ToString();
  }
  // Not published — readers never saw a torn generation — but the rows were
  // appended, so they ride along with the next successful ingest.
  EXPECT_EQ(fix.service->current_generation(), 0u);
  EXPECT_EQ(fix.service->num_rows(), rows_before);
  auto next = fix.service->Ingest(CensusRows(50, 0xB2));
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(*next, 1u) << "generation ids have no holes";
  EXPECT_EQ(fix.service->num_rows(), rows_before + 64 + 50);

  // The deferred generation is fully classified: a huge-ε COUNT(True) pins
  // the non-sensitive row count of the combined table.
  Table combined = CensusRows(1000, kCensusEngineSeed);
  ASSERT_TRUE(combined.AppendRows(CensusRows(64, 0xB1)).ok());
  ASSERT_TRUE(combined.AppendRows(CensusRows(50, 0xB2)).ok());
  const double ns_count =
      static_cast<double>(CensusPolicy().NonSensitiveRowMask(combined).Count());
  auto pinned =
      fix.service->AnswerCount(fix.session, Predicate::True(), 80.0);
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  EXPECT_LE(pinned->count, ns_count);
  EXPECT_GT(pinned->count, ns_count - 1.0);
}

// ------------------------------------------------------------------ soak ---

// The randomized soak (tests/service_soak.h): each fault point of the
// catalog armed for one hostile run — admission cap, expired deadlines, a
// mid-round cancel, a writer ingesting through both failure windows.
TEST_F(FaultTest, SoakFaultsOverloadDeadlinesAndIngestPreserveInvariants) {
  for (const SoakFault& fault : kSoakFaults) {
    SCOPED_TRACE(fault.point);
    SoakConfig config;
    config.seed = 0xF417;
    config.hostile = true;
    config.fault = fault;
    const std::vector<std::string> violations =
        CheckSoak(config, RunSoak(config));
    EXPECT_TRUE(violations.empty()) << ::testing::PrintToString(violations);
  }
}

}  // namespace
}  // namespace osdp
