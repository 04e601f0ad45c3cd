// Tests for the concurrent OSDP QueryService: determinism across thread
// counts and interleavings, two-budget safety under concurrency, no-charge
// validation failures, the composed guarantee of the thread-safe ledger, and
// the streaming ingest path — snapshot isolation and bit-identical serial
// replay of (generation, session, seq) under writer/reader races.
//
// The concurrency suites here are the primary ThreadSanitizer and
// ASan+UBSan targets (the CI tsan and asan-ubsan jobs run exactly this
// binary plus runtime_test).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/cancel.h"
#include "src/common/fault.h"
#include "src/core/engine.h"
#include "src/data/compiled_predicate.h"
#include "src/data/predicate.h"
#include "src/hist/histogram_query.h"
#include "src/mech/histogram_mechanism.h"
#include "src/runtime/query_service.h"
#include "src/runtime/thread_pool.h"
#include "tests/serial_replay.h"
#include "tests/service_soak.h"
#include "tests/table_rows.h"

namespace osdp {
namespace {

std::vector<ServiceRequest> TestBatch() {
  const Domain1D age_domain = *Domain1D::Numeric(0, 100, 16);
  std::vector<ServiceRequest> batch;
  batch.emplace_back(CountRequest{Predicate::Le("age", Value(40)), 0.05});
  batch.emplace_back(
      HistogramRequest{HistogramQuery{"age", age_domain, std::nullopt}, 0.05,
                       EngineMechanism::kOsdpLaplaceL1});
  batch.emplace_back(CountRequest{
      Predicate::And(Predicate::Gt("income", Value(30000.0)),
                     Predicate::In("race", {Value("C1"), Value("C2")})),
      0.05});
  batch.emplace_back(
      HistogramRequest{HistogramQuery{"age", age_domain,
                                      Predicate::Eq("opt_in", Value(1))},
                       0.05, EngineMechanism::kLaplace});
  return batch;
}

TEST(QueryServiceTest, AnswersMatchAcrossThreadAndShardCounts) {
  // The determinism contract: identical service configuration except for
  // parallelism ⇒ bit-identical answers. Noise comes from the per-query
  // (seed, session, seq) stream, never from scheduling.
  std::vector<std::vector<double>> counts_by_config;
  std::vector<std::vector<double>> hist_bins_by_config;
  const size_t thread_counts[] = {0, 1, 4};
  for (size_t threads : thread_counts) {
    ThreadPool pool(threads);
    QueryService::Options opts;
    opts.pool = &pool;
    opts.num_shards = threads == 0 ? 1 : 2 * threads + 1;
    auto service = *QueryService::Create(CensusEngine(10.0), opts);
    const QueryService::SessionId session = service->OpenSession("alice");

    std::vector<double> counts;
    std::vector<double> hist_bins;
    for (const auto& result : service->AnswerBatch(session, TestBatch())) {
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      if (result->histogram.has_value()) {
        for (double c : result->histogram->counts()) hist_bins.push_back(c);
      } else {
        counts.push_back(result->count);
      }
    }
    counts_by_config.push_back(std::move(counts));
    hist_bins_by_config.push_back(std::move(hist_bins));
  }
  for (size_t i = 1; i < counts_by_config.size(); ++i) {
    EXPECT_EQ(counts_by_config[i], counts_by_config[0]);
    EXPECT_EQ(hist_bins_by_config[i], hist_bins_by_config[0]);
  }
}

TEST(QueryServiceTest, CountMatchesNoiselessTruthWithinNoiseBound) {
  // With a large ε the one-sided Laplace noise is tiny and strictly
  // negative, so the answer pins the true non-sensitive matching count from
  // below.
  ThreadPool pool(2);
  QueryService::Options opts;
  opts.pool = &pool;
  auto engine = CensusEngine(1000.0);
  const Table& data = engine.snapshot()->table;
  const CompiledPredicate compiled = *CompiledPredicate::Compile(
      Predicate::Le("age", Value(40)), data.schema());
  RowMask truth = compiled.EvalMask(data);
  truth.AndWith(engine.snapshot()->non_sensitive);
  const double true_count = static_cast<double>(truth.Count());

  opts.per_session_epsilon = 600.0;
  auto service = *QueryService::Create(std::move(engine), opts);
  const auto session = service->OpenSession("alice");
  const auto answer =
      *service->AnswerCount(session, Predicate::Le("age", Value(40)), 500.0);
  EXPECT_LE(answer.count, true_count);
  EXPECT_GE(answer.count, true_count - 1.0);
}

TEST(QueryServiceTest, MalformedQueriesChargeNothing) {
  auto service = *QueryService::Create(CensusEngine(1.0), {});
  const auto session = service->OpenSession("alice");
  const double before_service = service->remaining_budget();
  const double before_session = *service->session_remaining(session);

  auto bad_column =
      service->AnswerCount(session, Predicate::Le("nope", Value(1)), 0.1);
  EXPECT_FALSE(bad_column.ok());

  auto bad_type =
      service->AnswerCount(session, Predicate::Eq("race", Value(3)), 0.1);
  EXPECT_FALSE(bad_type.ok());

  auto bad_epsilon =
      service->AnswerCount(session, Predicate::True(), -1.0);
  EXPECT_FALSE(bad_epsilon.ok());

  const Domain1D domain = *Domain1D::Numeric(0, 100, 8);
  auto bad_hist = service->AnswerHistogram(
      session, HistogramQuery{"race", domain, std::nullopt}, 0.1,
      EngineMechanism::kOsdpLaplaceL1);
  EXPECT_FALSE(bad_hist.ok());

  auto missing_column = service->AnswerHistogram(
      session,
      HistogramQuery{"missing_column", Domain1D::Categorical(4), std::nullopt},
      0.5, EngineMechanism::kLaplace);
  EXPECT_FALSE(missing_column.ok());

  auto bad_sample = service->AnswerBatch(session, {SampleRequest{-1.0}});
  EXPECT_FALSE(bad_sample[0].ok());

  EXPECT_EQ(service->remaining_budget(), before_service);
  EXPECT_EQ(*service->session_remaining(session), before_session);
  EXPECT_FALSE(service->CurrentGuarantee().ok()) << "nothing was released";
}

TEST(QueryServiceTest, UnknownHistogramMechanismIsRejectedBeforeReservation) {
  // A mechanism outside the catalog is malformed like an unknown column: it
  // must not reserve ε on either budget or consume a sequence number.
  auto service = *QueryService::Create(CensusEngine(1.0), {});
  const auto session = service->OpenSession("alice");
  const double before_service = service->remaining_budget();
  const double before_session = *service->session_remaining(session);

  std::vector<ServiceRequest> batch;
  batch.emplace_back(HistogramRequest{
      HistogramQuery{"age", *Domain1D::Numeric(0, 100, 16), std::nullopt},
      0.1, static_cast<EngineMechanism>(42)});
  const auto results = service->AnswerBatch(session, batch);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status().code(), StatusCode::kInvalidArgument)
      << results[0].status().ToString();
  EXPECT_EQ(service->remaining_budget(), before_service);
  EXPECT_EQ(*service->session_remaining(session), before_session);
  EXPECT_EQ(service->ledger().size(), 0u);

  const auto next =
      service->AnswerCount(session, Predicate::Le("age", Value(40)), 0.1);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next->seq, 0u);
}

TEST(QueryServiceTest, PerSessionBudgetIsEnforcedIndependently) {
  QueryService::Options opts;
  opts.per_session_epsilon = 0.25;
  auto service = *QueryService::Create(CensusEngine(10.0), opts);
  const auto alice = service->OpenSession("alice");
  const auto bob = service->OpenSession("bob");

  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(
        service->AnswerCount(alice, Predicate::True(), 0.1).ok());
  }
  // 0.05 left: the third 0.1 charge must fail without touching anything.
  auto exhausted = service->AnswerCount(alice, Predicate::True(), 0.1);
  ASSERT_FALSE(exhausted.ok());
  EXPECT_EQ(exhausted.status().code(), StatusCode::kBudgetExhausted);

  // Bob's budget is untouched by Alice's exhaustion.
  EXPECT_DOUBLE_EQ(*service->session_remaining(bob), 0.25);
  EXPECT_TRUE(service->AnswerCount(bob, Predicate::True(), 0.1).ok());
}

TEST(QueryServiceTest, ServiceWideBudgetCapsTotalSpendAcrossSessions) {
  // Dataset lifetime ε = 0.5 but each of 3 sessions may spend 0.3: the
  // service-wide budget must stop the aggregate at 0.5, refunding the
  // session reservation of the refused query.
  QueryService::Options opts;
  opts.per_session_epsilon = 0.3;
  auto service = *QueryService::Create(CensusEngine(0.5), opts);
  size_t granted = 0;
  std::vector<QueryService::SessionId> sessions;
  for (const char* analyst : {"a", "b", "c"}) {
    sessions.push_back(service->OpenSession(analyst));
  }
  std::vector<double> session_remaining_after;
  for (const auto session : sessions) {
    const double before = *service->session_remaining(session);
    if (service->AnswerCount(session, Predicate::True(), 0.2).ok()) {
      ++granted;
    } else {
      // Refused by the *service* budget: the session budget was refunded.
      EXPECT_DOUBLE_EQ(*service->session_remaining(session), before);
    }
  }
  EXPECT_EQ(granted, 2u);
  EXPECT_NEAR(service->remaining_budget(), 0.1, 1e-12);

  const ComposedGuarantee guarantee = *service->CurrentGuarantee();
  EXPECT_NEAR(guarantee.epsilon, 0.4, 1e-12);
  EXPECT_EQ(service->ledger().size(), granted);
}

TEST(QueryServiceTest, GuaranteeNamesTheEnginePolicyAfterManyDeliveries) {
  // The ledger keeps the engine's policy once however many releases it
  // records, so the composed guarantee names that policy itself (same
  // predicate root, same name), and its ε is the ledger's entries summed in
  // record order.
  OsdpEngine engine = CensusEngine(1e6, 300);
  const Policy policy = engine.policy();
  QueryService::Options opts;
  opts.per_session_epsilon = 1e6;
  auto service = *QueryService::Create(std::move(engine), opts);
  const auto session = service->OpenSession("alice");
  constexpr size_t kBatches = 40;
  constexpr size_t kPerBatch = 50;
  for (size_t b = 0; b < kBatches; ++b) {
    std::vector<ServiceRequest> batch;
    for (size_t q = 0; q < kPerBatch; ++q) {
      batch.emplace_back(CountRequest{Predicate::Le("age", Value(40)),
                                      0.01 * static_cast<double>(1 + b % 3)});
    }
    for (const auto& result : service->AnswerBatch(session, batch)) {
      ASSERT_TRUE(result.ok()) << result.status().ToString();
    }
  }

  const std::vector<SharedLedger::Entry> entries = service->ledger().entries();
  ASSERT_EQ(entries.size(), kBatches * kPerBatch);
  EXPECT_EQ(entries.front().label, "count query (alice)");
  double in_order = entries.front().epsilon;
  for (size_t i = 1; i < entries.size(); ++i) in_order += entries[i].epsilon;

  const ComposedGuarantee guarantee = *service->CurrentGuarantee();
  EXPECT_EQ(guarantee.policy.sensitive_predicate().root(),
            policy.sensitive_predicate().root());
  EXPECT_EQ(guarantee.policy.name(), policy.name());
  EXPECT_EQ(guarantee.epsilon, in_order);
}

TEST(QueryServiceTest, SessionLifecycle) {
  auto service = *QueryService::Create(CensusEngine(1.0), {});
  const auto session = service->OpenSession("alice");
  EXPECT_TRUE(service->CloseSession(session).ok());
  EXPECT_FALSE(service->CloseSession(session).ok());
  EXPECT_FALSE(service->session_remaining(session).ok());
  auto after_close = service->AnswerCount(session, Predicate::True(), 0.1);
  EXPECT_FALSE(after_close.ok());
}

TEST(QueryServiceTest, NonFiniteEpsilonIsRejectedWithoutCharge) {
  // NaN passes `epsilon <= 0`; it used to reach the budget (poisoning it so
  // every later charge passed) and then abort in the Laplace sampler.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  auto service = *QueryService::Create(CensusEngine(10.0), {});
  const auto session = service->OpenSession("alice");
  const double before_service = service->remaining_budget();
  const double before_session = *service->session_remaining(session);
  const HistogramQuery age{"age", *Domain1D::Numeric(0, 100, 8), std::nullopt};

  for (double bad : {kNaN, kInf, -kInf}) {
    std::vector<ServiceRequest> batch;
    batch.emplace_back(CountRequest{Predicate::True(), bad});
    batch.emplace_back(HistogramRequest{age, bad, EngineMechanism::kLaplace});
    batch.emplace_back(HistogramRequest{age, bad, EngineMechanism::kDawa});
    batch.emplace_back(SampleRequest{bad});
    for (const auto& r : service->AnswerBatch(session, batch)) {
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << bad;
    }
  }
  EXPECT_EQ(service->remaining_budget(), before_service);
  EXPECT_EQ(*service->session_remaining(session), before_session);
  EXPECT_EQ(service->ledger().size(), 0u);

  // The books still refuse what they should and grant what they should.
  EXPECT_TRUE(service->AnswerCount(session, Predicate::True(), 0.1).ok());
  EXPECT_EQ(service->AnswerCount(session, Predicate::True(), 5.0)
                .status()
                .code(),
            StatusCode::kBudgetExhausted);

  // Non-finite budgets are refused at construction, not by an abort.
  for (double bad : {kNaN, kInf}) {
    QueryService::Options opts;
    opts.per_session_epsilon = bad;
    EXPECT_EQ(QueryService::Create(CensusEngine(1.0, 10), opts).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(QueryServiceTest, CategoricalHistogramOverOutOfDomainCodesIsCharged) {
  // Census ages run 0..99, so Categorical(4) over `age` meets codes outside
  // the domain in most rows. Whether it does depends on the rows, sensitive
  // ones included, so it may be neither an abort nor an error: the codes
  // clamp to the edge bins, and each release is delivered and charged like
  // any other, and replays.
  auto service = *QueryService::Create(CensusEngine(10.0), {});
  const auto session = service->OpenSession("alice");
  const Domain1D four = Domain1D::Categorical(4);
  const std::vector<ServiceRequest> batch = {
      HistogramRequest{HistogramQuery{"age", four, std::nullopt}, 0.5,
                       EngineMechanism::kLaplace},
      HistogramRequest{
          HistogramQuery{"age", four, Predicate::Gt("zip", Value(5000))}, 0.5,
          EngineMechanism::kOsdpLaplaceL1}};
  const auto answers = service->AnswerBatch(session, batch);
  const SnapshotPtr snap = service->current_snapshot();
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(answers[i].ok()) << answers[i].status().ToString();
    ASSERT_TRUE(answers[i]->histogram.has_value());
    EXPECT_EQ(answers[i]->histogram->size(), 4u);
    EXPECT_TRUE(SameRelease(
        *answers[i],
        *ReplayAnswer(snap->table, snap->non_sensitive, batch[i],
                      QueryService::Options{}.seed, session, answers[i]->seq,
                      answers[i]->generation)))
        << "slot " << i;
  }
  EXPECT_NEAR(service->remaining_budget(), 9.0, 1e-12);
  EXPECT_NEAR(*service->session_remaining(session), 0.0, 1e-12);
  EXPECT_EQ(service->ledger().size(), 2u);
}

// ------------------------------------------------------- serial callers ---
//
// A serial caller is a one-session service over an inline pool: every query
// runs on the calling thread, charged through the same two budgets and
// ledger as any concurrent session.

class SerialService {
 public:
  SerialService(double total_epsilon, double per_session_epsilon,
                size_t rows = 3000) {
    QueryService::Options opts;
    opts.pool = &pool_;
    opts.per_session_epsilon = per_session_epsilon;
    service_ = *QueryService::Create(CensusEngine(total_epsilon, rows), opts);
    session_ = service_->OpenSession("serial");
  }

  Result<ServiceAnswer> Ask(ServiceRequest request) {
    std::vector<ServiceRequest> batch;
    batch.push_back(std::move(request));
    return std::move(service_->AnswerBatch(session_, batch)[0]);
  }

  QueryService& service() { return *service_; }
  QueryService::SessionId session() const { return session_; }
  double session_remaining() const {
    return *service_->session_remaining(session_);
  }

 private:
  ThreadPool pool_{0};  // declared first: outlives the service using it
  std::unique_ptr<QueryService> service_;
  QueryService::SessionId session_ = 0;
};

HistogramQuery AgeQuery() {
  return HistogramQuery{"age", *Domain1D::Numeric(0, 100, 10), std::nullopt};
}

TEST(QueryServiceSerialTest, SampleChargesBothBudgetsAndHoldsOnlyNonSensitive) {
  SerialService s(/*total_epsilon=*/1.0, /*per_session_epsilon=*/2.0);
  const ServiceAnswer answer = *s.Ask(SampleRequest{0.4});
  EXPECT_NEAR(s.service().remaining_budget(), 0.6, 1e-12);
  EXPECT_NEAR(s.session_remaining(), 1.6, 1e-12);
  EXPECT_EQ(s.service().ledger().size(), 1u);

  ASSERT_TRUE(answer.sample.has_value());
  const TableView& sample = *answer.sample;
  EXPECT_GT(sample.mask().Count(), 0u);
  EXPECT_EQ(sample.snapshot(), s.service().current_snapshot());
  EXPECT_TRUE(sample.mask().IsSubsetOf(
      CensusPolicy().NonSensitiveRowMask(sample.table())));
}

TEST(QueryServiceSerialTest, ExhaustedBudgetRefusesSamplesAndHistograms) {
  // The dataset budget (0.5) binds before the session's (10).
  SerialService s(/*total_epsilon=*/0.5, /*per_session_epsilon=*/10.0);
  ASSERT_TRUE(s.Ask(SampleRequest{0.5}).ok());
  EXPECT_EQ(s.Ask(SampleRequest{0.1}).status().code(),
            StatusCode::kBudgetExhausted);
  EXPECT_EQ(s.Ask(HistogramRequest{AgeQuery(), 0.1,
                                   EngineMechanism::kOsdpLaplaceL1})
                .status()
                .code(),
            StatusCode::kBudgetExhausted);
  EXPECT_NEAR(s.session_remaining(), 9.5, 1e-12);
  EXPECT_EQ(s.service().ledger().size(), 1u);
}

TEST(QueryServiceSerialTest, EveryMechanismAnswersHistograms) {
  SerialService s(/*total_epsilon=*/10.0, /*per_session_epsilon=*/10.0);
  for (EngineMechanism m :
       {EngineMechanism::kLaplace, EngineMechanism::kOsdpLaplace,
        EngineMechanism::kOsdpLaplaceL1, EngineMechanism::kDawa,
        EngineMechanism::kDawaz, EngineMechanism::kHierarchical}) {
    const auto answer = s.Ask(HistogramRequest{AgeQuery(), 1.0, m});
    ASSERT_TRUE(answer.ok()) << EngineMechanismToString(m) << ": "
                             << answer.status().ToString();
    ASSERT_TRUE(answer->histogram.has_value());
    EXPECT_EQ(answer->histogram->size(), 10u);
  }
  EXPECT_NEAR(s.service().remaining_budget(), 4.0, 1e-9);
}

TEST(QueryServiceSerialTest, GuaranteeAddsUpSampleAndHistogramEpsilon) {
  SerialService s(/*total_epsilon=*/2.0, /*per_session_epsilon=*/2.0);
  EXPECT_FALSE(s.service().CurrentGuarantee().ok()) << "nothing released yet";
  ASSERT_TRUE(s.Ask(SampleRequest{0.5}).ok());
  ASSERT_TRUE(
      s.Ask(HistogramRequest{AgeQuery(), 0.7, EngineMechanism::kOsdpLaplaceL1})
          .ok());
  EXPECT_NEAR(s.service().CurrentGuarantee()->epsilon, 1.2, 1e-12);
  EXPECT_EQ(s.service().ledger().size(), 2u);
}

TEST(QueryServiceSerialTest, SampleReplaysFromQuerySeedAcrossAnIngest) {
  constexpr size_t kSeedRows = 500;
  constexpr double kEps = 0.7;
  SerialService s(/*total_epsilon=*/10.0, /*per_session_epsilon=*/10.0,
                  kSeedRows);
  const ServiceAnswer before = *s.Ask(SampleRequest{kEps});
  const Table batch = CensusRows(130, 0xB3);
  ASSERT_EQ(*s.service().Ingest(batch), 1u);
  const ServiceAnswer after = *s.Ask(SampleRequest{kEps});
  EXPECT_EQ(before.generation, 0u);
  EXPECT_EQ(after.generation, 1u);

  // Rebuild both generations from scratch and rerun OsdpRR on each answer's
  // (seed, session, seq, generation) stream.
  std::vector<Table> generations{CensusRows(kSeedRows, kCensusEngineSeed)};
  Table grown = generations[0];
  ASSERT_TRUE(grown.AppendRows(batch).ok());
  generations.push_back(std::move(grown));
  for (const ServiceAnswer* answer : {&before, &after}) {
    ASSERT_TRUE(answer->sample.has_value());
    const Table& table = generations[answer->generation];
    const ServiceAnswer expected = *ReplayAnswer(
        table, CensusPolicy().NonSensitiveRowMask(table), SampleRequest{kEps},
        QueryService::Options{}.seed, s.session(), answer->seq,
        answer->generation);
    // The sample still reads its own generation after the ingest.
    EXPECT_EQ(answer->sample->snapshot()->generation, answer->generation);
    EXPECT_EQ(answer->sample->table().num_rows(), table.num_rows());
    EXPECT_TRUE(SameRelease(*answer, expected))
        << "sample diverged at generation " << answer->generation;
  }
}

TEST(QueryServiceConcurrencyTest, ConcurrentSessionsNeverOverspend) {
  // The TSan centerpiece: many analyst threads hammer the service while the
  // scans themselves shard over a small pool. Afterwards the books must
  // balance exactly: spent = Σ granted ε ≤ ε_total, one ledger entry per
  // success, and the composed guarantee equal to the spent total.
  ThreadPool pool(2);
  QueryService::Options opts;
  opts.pool = &pool;
  opts.per_session_epsilon = 1.0;
  constexpr double kTotal = 2.0;
  constexpr double kEps = 0.05;
  auto service = *QueryService::Create(CensusEngine(kTotal, 500), opts);

  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 12;
  std::atomic<int> granted{0};
  std::vector<std::thread> analysts;
  analysts.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    analysts.emplace_back([&, t] {
      const auto session =
          service->OpenSession("analyst-" + std::to_string(t));
      std::vector<ServiceRequest> batch;
      for (int q = 0; q < kQueriesPerThread; ++q) {
        batch.emplace_back(CountRequest{
            Predicate::Le("age", Value(20 + (t * 7 + q) % 60)), kEps});
      }
      for (const auto& result : service->AnswerBatch(session, batch)) {
        if (result.ok()) {
          granted.fetch_add(1);
        } else {
          EXPECT_EQ(result.status().code(), StatusCode::kBudgetExhausted)
              << result.status().ToString();
        }
      }
    });
  }
  for (std::thread& t : analysts) t.join();

  const double spent = kTotal - service->remaining_budget();
  EXPECT_NEAR(spent, granted.load() * kEps, 1e-9);
  EXPECT_LE(spent, kTotal + 1e-9);
  EXPECT_EQ(service->ledger().size(), static_cast<size_t>(granted.load()));
  const ComposedGuarantee guarantee = *service->CurrentGuarantee();
  EXPECT_NEAR(guarantee.epsilon, spent, 1e-9);
  // 8 threads × 12 × 0.05 = 4.8 demanded vs 2.0 total: contention happened.
  EXPECT_LT(granted.load(), kThreads * kQueriesPerThread);
}

TEST(QueryServiceConcurrencyTest, PerSessionStreamsAreInterleavingInvariant) {
  // Each session's answers depend only on its own submission order, not on
  // what other sessions do in parallel. Run session "solo" serially, then
  // re-run the same queries while 3 noisy sessions hammer the service from
  // other threads — solo's answers must be bit-identical.
  // Session ids increment per OpenSession, and solo's noise stream derives
  // from (root seed, session id, seq) — so open every session serially up
  // front to give "solo" the same id in both runs, then let the noise
  // sessions hammer from other threads only in the contended run. Noise
  // spend is bounded by their per-session budgets (3 × 1.0), so the shared
  // service budget can never refuse solo's charges.
  const auto run_solo = [](QueryService& service, bool with_noise) {
    std::vector<QueryService::SessionId> noise_ids;
    for (int t = 0; t < 3; ++t) {
      noise_ids.push_back(service.OpenSession("noise-" + std::to_string(t)));
    }
    const auto solo = service.OpenSession("solo");

    std::vector<std::thread> noise;
    std::atomic<bool> stop{false};
    if (with_noise) {
      for (const auto id : noise_ids) {
        noise.emplace_back([&service, &stop, id] {
          while (!stop.load()) {
            service.AnswerCount(id, Predicate::Le("age", Value(50)), 0.001);
          }
        });
      }
    }
    std::vector<double> answers;
    for (int q = 0; q < 10; ++q) {
      auto r = service.AnswerCount(
          solo, Predicate::Le("age", Value(30 + q)), 0.01);
      answers.push_back(r.ok() ? r->count : -1.0);
    }
    stop.store(true);
    for (std::thread& t : noise) t.join();
    return answers;
  };

  ThreadPool pool(2);
  QueryService::Options opts;
  opts.pool = &pool;
  opts.per_session_epsilon = 1.0;

  auto quiet = *QueryService::Create(CensusEngine(1000.0, 500), opts);
  const std::vector<double> baseline = run_solo(*quiet, false);

  auto noisy = *QueryService::Create(CensusEngine(1000.0, 500), opts);
  const std::vector<double> contended = run_solo(*noisy, true);

  EXPECT_EQ(contended, baseline);
}

TEST(QueryServiceConcurrencyTest, PooledSamplesMatchTheirSerialReplay) {
  // A batch of samples runs on pool workers at once (the serial suite runs
  // them inline). Workers draw coins over the snapshot's stored
  // non-sensitive mask; each sample must equal OsdpRR replayed from its
  // QuerySeed against a fresh policy classification.
  constexpr double kEps = 0.4;
  ThreadPool pool(4);
  QueryService::Options opts;
  opts.pool = &pool;
  opts.per_session_epsilon = 10.0;
  OsdpEngine engine = CensusEngine(10.0, 1000);
  const Table table = engine.snapshot()->table;
  auto service = *QueryService::Create(std::move(engine), opts);
  const QueryService::SessionId session = service->OpenSession("alice");

  std::vector<ServiceRequest> batch;
  for (int i = 0; i < 8; ++i) batch.emplace_back(SampleRequest{kEps});
  const RowMask ns = CensusPolicy().NonSensitiveRowMask(table);
  for (const auto& result : service->AnswerBatch(session, batch)) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_TRUE(result->sample.has_value());
    EXPECT_TRUE(SameRelease(
        *result, *ReplayAnswer(table, ns, SampleRequest{kEps}, opts.seed,
                               session, result->seq, result->generation)))
        << "seq " << result->seq;
  }
  EXPECT_EQ(service->ledger().size(), batch.size());
}

// ------------------------------------------------------------ streaming ---

TEST(QueryServiceStreamingTest, IngestPublishesGenerationsAndIsolatesQueries) {
  // With a huge ε the one-sided Laplace noise is in (-1, 0], so a
  // COUNT(True) pins the non-sensitive row count of whichever generation
  // the query was answered against — generation isolation is observable in
  // the answer itself, not just in the tag.
  QueryService::Options opts;
  opts.per_session_epsilon = 5000.0;
  auto engine = CensusEngine(10000.0, 200);
  const Policy policy = CensusPolicy();
  Table accumulated = engine.snapshot()->table;
  auto service = *QueryService::Create(std::move(engine), opts);
  const auto session = service->OpenSession("alice");
  EXPECT_EQ(service->current_generation(), 0u);
  EXPECT_EQ(service->num_rows(), 200u);

  const auto ns_count = [&](const Table& t) {
    return static_cast<double>(policy.NonSensitiveRowMask(t).Count());
  };

  const auto before = *service->AnswerCount(session, Predicate::True(), 1000.0);
  EXPECT_EQ(before.generation, 0u);
  EXPECT_LE(before.count, ns_count(accumulated));
  EXPECT_GT(before.count, ns_count(accumulated) - 1.0);

  const Table batch = CensusRows(150, 0xB1);
  ASSERT_EQ(*service->Ingest(batch), 1u);
  ASSERT_TRUE(accumulated.AppendRows(batch).ok());
  EXPECT_EQ(service->current_generation(), 1u);
  EXPECT_EQ(service->num_rows(), 350u);

  const auto after = *service->AnswerCount(session, Predicate::True(), 1000.0);
  EXPECT_EQ(after.generation, 1u);
  EXPECT_LE(after.count, ns_count(accumulated));
  EXPECT_GT(after.count, ns_count(accumulated) - 1.0);

  // The ledger names the generation each ε was charged against.
  const auto entries = service->ledger().entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].generation, 0u);
  EXPECT_EQ(entries[1].generation, 1u);

  // A wrong-schema batch changes nothing.
  const Table wrong =
      TableFromRows(Schema({{"other", ValueType::kInt64}}), {{Value(1)}});
  const auto bad = service->Ingest(wrong);
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service->current_generation(), 1u);
  EXPECT_EQ(service->num_rows(), 350u);
}

TEST(QueryServiceStreamingTest, AnswersStayDeterministicAcrossThreadCounts) {
  // The PR-3 determinism contract extended to a moving dataset: identical
  // configuration except for parallelism, with an ingest between batches,
  // still gives bit-identical answers (the seed is generation-tagged, never
  // timing-dependent).
  std::vector<std::vector<double>> answers_by_config;
  for (size_t threads : {size_t{0}, size_t{1}, size_t{4}}) {
    ThreadPool pool(threads);
    QueryService::Options opts;
    opts.pool = &pool;
    opts.num_shards = threads == 0 ? 1 : 2 * threads + 1;
    auto service = *QueryService::Create(CensusEngine(10.0), opts);
    const auto session = service->OpenSession("alice");

    std::vector<double> answers;
    const auto record = [&](const std::vector<Result<ServiceAnswer>>& batch) {
      for (const auto& result : batch) {
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        if (result->histogram.has_value()) {
          for (double c : result->histogram->counts()) answers.push_back(c);
        } else {
          answers.push_back(result->count);
        }
      }
    };
    record(service->AnswerBatch(session, TestBatch()));
    ASSERT_EQ(*service->Ingest(CensusRows(123, 0xB2)), 1u);
    record(service->AnswerBatch(session, TestBatch()));
    answers_by_config.push_back(std::move(answers));
  }
  for (size_t i = 1; i < answers_by_config.size(); ++i) {
    EXPECT_EQ(answers_by_config[i], answers_by_config[0]);
  }
}

void ExpectSound(const SoakConfig& config, const SoakRun& run) {
  const std::vector<std::string> violations = CheckSoak(config, run);
  EXPECT_TRUE(violations.empty()) << ::testing::PrintToString(violations);
}

// The streaming stress harness (tests/service_soak.h): one writer publishes
// generations while analyst sessions query from other threads. Every
// delivery replays bit for bit from the generation it names, which equals a
// from-scratch rebuild: determinism and snapshot isolation at once. The
// replay also pins the mask cache, and holds with metrics off: observation
// never influences answers (tests/obs_test.cc pins the twin half).
void ExpectSoundConcurrentIngest(size_t mask_cache_bytes,
                                 bool metrics_enabled) {
  SoakConfig config;
  config.mask_cache_bytes = mask_cache_bytes;
  config.metrics_enabled = metrics_enabled;
  ExpectSound(config, RunSoak(config));
}

TEST(QueryServiceStreamingTest, ConcurrentIngestMatchesSerialReplay) {
  ExpectSoundConcurrentIngest(/*mask_cache_bytes=*/0, /*metrics_enabled=*/true);
}

TEST(QueryServiceStreamingTest,
     ConcurrentIngestMatchesSerialReplayWithMaskCache) {
  ExpectSoundConcurrentIngest(64ull << 20, /*metrics_enabled=*/true);
}

TEST(QueryServiceStreamingTest,
     ConcurrentIngestMatchesSerialReplayWithMetricsDisabled) {
  ExpectSoundConcurrentIngest(/*mask_cache_bytes=*/0,
                              /*metrics_enabled=*/false);
}

TEST(QueryServiceStreamingTest,
     ConcurrentIngestMatchesSerialReplayWithMaskCacheAndMetricsDisabled) {
  ExpectSoundConcurrentIngest(64ull << 20, /*metrics_enabled=*/false);
}

TEST(QueryServiceStreamingTest, EmptyIngestIsANoOpThatPreservesCachedMasks) {
  // An empty batch of the right schema must not publish a new generation:
  // the dataset is bit-identical, and a generation bump would orphan every
  // cached (predicate, generation) mask for nothing.
  auto service = *QueryService::Create(CensusEngine(10.0), {});
  const auto session = service->OpenSession("alice");
  const Predicate pred = Predicate::Le("age", Value(33));

  const auto miss = *service->AnswerCount(session, pred, 0.05);
  EXPECT_FALSE(miss.cache_hit);

  const Table empty(service->current_snapshot()->table.schema());
  const auto generation = service->Ingest(empty);
  ASSERT_TRUE(generation.ok()) << generation.status().ToString();
  EXPECT_EQ(*generation, 0u) << "no new generation for an empty batch";
  EXPECT_EQ(service->current_generation(), 0u);

  // The cached mask survived the no-op ingest.
  const auto hit = *service->AnswerCount(session, pred, 0.05);
  EXPECT_TRUE(hit.cache_hit) << "empty ingest churned the mask cache";
  EXPECT_EQ(hit.generation, 0u);

  // Empty but wrong-schema still fails loudly (schema errors are checked
  // before the empty short-circuit).
  const Table wrong(Schema({{"other", ValueType::kInt64}}));
  EXPECT_EQ(service->Ingest(wrong).status().code(),
            StatusCode::kInvalidArgument);
}

// ----------------------------------------------------- fault tolerance ---

TEST(QueryServiceAdmissionTest, OverfullBatchIsShedDeterministically) {
  // max_queued_queries = 2 and a batch of 3: even on an otherwise idle
  // service the gate must shed the whole batch — every slot
  // ResourceExhausted, zero ε reserved, zero ledger entries.
  QueryService::Options opts;
  opts.max_queued_queries = 2;
  auto service = *QueryService::Create(CensusEngine(10.0), opts);
  const auto session = service->OpenSession("alice");
  const double before = service->remaining_budget();

  std::vector<ServiceRequest> batch;
  for (int q = 0; q < 3; ++q) {
    batch.emplace_back(CountRequest{Predicate::True(), 0.05});
  }
  const auto results = service->AnswerBatch(session, batch);
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  }
  EXPECT_EQ(service->remaining_budget(), before);
  EXPECT_EQ(*service->session_remaining(session), opts.per_session_epsilon);
  EXPECT_EQ(service->ledger().size(), 0u);

  const auto stats = service->admission_stats();
  EXPECT_EQ(stats.admitted, 0u);
  EXPECT_EQ(stats.rejected, 1u);

  // A batch that fits passes the same gate untouched.
  batch.pop_back();
  for (const auto& r : service->AnswerBatch(session, batch)) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
  EXPECT_EQ(service->admission_stats().admitted, 1u);
}

TEST(QueryServiceAdmissionTest, ConcurrentOverloadShedsCleanly) {
  // Four sessions' threads and a writer against a cap of two concurrent
  // batches, with expired deadlines and a mid-round cancel but no fault:
  // some batches shed, the admitted ones deliver or explain themselves, and
  // the books close exactly (tests/service_soak.h).
  SoakConfig config;
  config.hostile = true;
  ExpectSound(config, RunSoak(config));
}

TEST(QueryServiceDeadlineTest, PastDeadlineRefusesWithFullRefund) {
  auto service = *QueryService::Create(CensusEngine(10.0), {});
  const auto session = service->OpenSession("alice");
  const double before = service->remaining_budget();

  CountRequest late{Predicate::True(), 0.1};
  late.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(5);
  std::vector<ServiceRequest> batch;
  batch.emplace_back(std::move(late));
  const auto result = std::move(service->AnswerBatch(session, batch)[0]);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service->remaining_budget(), before);
  EXPECT_EQ(*service->session_remaining(session),
            QueryService::Options{}.per_session_epsilon);
  EXPECT_EQ(service->ledger().size(), 0u);

  // The batch-wide deadline (BatchControl) applies the same way.
  QueryService::BatchControl control;
  control.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(5);
  std::vector<ServiceRequest> fine;
  fine.emplace_back(CountRequest{Predicate::True(), 0.1});
  const auto batch_late =
      std::move(service->AnswerBatch(session, fine, control)[0]);
  ASSERT_FALSE(batch_late.ok());
  EXPECT_EQ(batch_late.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service->remaining_budget(), before);
}

TEST(QueryServiceCancelTest, PreCancelledTokenRefusesEverySlotWithRefund) {
  auto service = *QueryService::Create(CensusEngine(10.0), {});
  const auto session = service->OpenSession("alice");
  const double before = service->remaining_budget();

  CancelToken token;
  token.Cancel();
  QueryService::BatchControl control;
  control.cancel = token;
  const auto results =
      service->AnswerBatch(session, TestBatch(), control);
  for (const auto& r : results) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  }
  EXPECT_EQ(service->remaining_budget(), before);
  EXPECT_EQ(service->ledger().size(), 0u);

  // Cancellation is per-batch, not per-session: the same session answers
  // normally without the token.
  EXPECT_TRUE(service->AnswerCount(session, Predicate::True(), 0.05).ok());
}

// A one-session soak run on `rows` census rows, in batches of `batch_size`.
SoakConfig CancelRaceConfig(size_t rows, size_t batch_size) {
  SoakConfig config;
  config.seed_rows = rows;
  config.readers = 1;
  config.queries_per_batch = batch_size;
  return config;
}

// Submits `batch` as the one session's next batch while another thread fires
// its token `after` into it.
void SubmitRacingACancel(SoakRun* run, std::vector<ServiceRequest> batch,
                         std::chrono::microseconds after) {
  CancelToken token;
  QueryService::BatchControl control;
  control.cancel = token;
  std::thread canceller([&] {
    std::this_thread::sleep_for(after);
    token.Cancel();
  });
  SoakSubmit(run, 0, std::move(batch), control);
  canceller.join();
}

TEST(QueryServiceCancelTest, MidFlightCancelKeepsTheBooksExact) {
  // Fire the token from another thread while a large batch is scanning. The
  // race decides *which* queries deliver, never the invariants: only the
  // raced batch's slots may fail, only as Cancelled, and every delivered
  // answer replays by seq (CheckSoak).
  const SoakConfig config = CancelRaceConfig(30000, 12);
  SoakRun run = OpenSoak(config);
  std::vector<ServiceRequest> batch;
  for (int q = 0; q < 12; ++q) {
    batch.emplace_back(
        CountRequest{Predicate::Le("age", Value(15 + 6 * q)), kSoakEpsilon});
  }
  SubmitRacingACancel(&run, batch, std::chrono::microseconds(400));
  FinishSoak(&run);
  ExpectSound(config, run);
}

TEST(QueryServiceTest, CloseSessionDuringInFlightBatch) {
  // CloseSession while that session's batch is executing: the prepared
  // queries hold the Session through a shared_ptr, so the in-flight batch keeps
  // its budget alive — answers deliver normally and the service-side books
  // still close exactly; only new submissions observe the close.
  ThreadPool pool(2);
  QueryService::Options opts;
  opts.pool = &pool;
  opts.per_session_epsilon = 10.0;
  auto service = *QueryService::Create(CensusEngine(100.0, 30000), opts);
  const double total = service->remaining_budget();
  const auto session = service->OpenSession("alice");

  constexpr double kEps = 0.05;
  std::vector<ServiceRequest> batch;
  for (int q = 0; q < 10; ++q) {
    batch.emplace_back(
        CountRequest{Predicate::Le("age", Value(18 + 7 * q)), kEps});
  }
  std::vector<Result<ServiceAnswer>> results;
  std::atomic<bool> submitting{false};
  std::thread analyst([&] {
    submitting.store(true);
    results = service->AnswerBatch(session, batch);
  });
  // Wait for the analyst thread to be running first: a close that beats the
  // submission is an ordinary NotFound, not the in-flight case under test
  // (a loaded host can delay thread start past any fixed sleep).
  while (!submitting.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::microseconds(300));
  // Lands during or after the batch — both must be safe.
  EXPECT_TRUE(service->CloseSession(session).ok());
  analyst.join();

  size_t delivered = 0;
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ++delivered;
  }
  EXPECT_EQ(delivered, batch.size());
  EXPECT_NEAR(total - service->remaining_budget(), delivered * kEps, 1e-9);
  EXPECT_EQ(service->ledger().size(), delivered);

  // The close did land: new submissions are refused.
  EXPECT_FALSE(service->session_remaining(session).ok());
  const auto after = service->AnswerCount(session, Predicate::True(), kEps);
  EXPECT_EQ(after.status().code(), StatusCode::kNotFound);
}

// ------------------------------------------------------ aggregate memo ---
//
// The mask cache memoizes each WHERE clause's exact aggregates per
// generation: |WHERE ∧ x_ns| for counts, the x and x_ns histograms for
// histogram mechanisms. Every case checks every delivered answer against a
// serial replay that recomputes the aggregates from the snapshot's rows and
// redraws the noise from QuerySeed(root, session, seq, generation).

constexpr uint64_t kMemoRootSeed = 0x3E30;

std::unique_ptr<QueryService> MemoService(ThreadPool* pool, size_t rows) {
  QueryService::Options opts;
  opts.pool = pool;
  opts.num_shards = 3;
  opts.per_session_epsilon = 1e6;
  opts.seed = kMemoRootSeed;
  return *QueryService::Create(CensusEngine(1e7, rows), opts);
}

// Replays one delivered answer of `request` against `snap` serially.
void ExpectReplays(const ServiceRequest& request, const ServiceAnswer& answer,
                   const Snapshot& snap, QueryService::SessionId session) {
  ASSERT_EQ(answer.generation, snap.generation);
  const Table& table = snap.table;
  EXPECT_TRUE(SameRelease(
      answer, *ReplayAnswer(table, CensusPolicy().NonSensitiveRowMask(table),
                            request, kMemoRootSeed, session, answer.seq,
                            snap.generation)))
      << "answer diverged at seq " << answer.seq;
}

// Answers `batch` and replays every answer against the current snapshot.
void AnswerAndReplay(QueryService* service, QueryService::SessionId session,
                     const std::vector<ServiceRequest>& batch) {
  const SnapshotPtr snap = service->current_snapshot();
  const auto answers = service->AnswerBatch(session, batch);
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(answers[i].ok()) << answers[i].status().ToString();
    ExpectReplays(batch[i], *answers[i], *snap, session);
  }
}

HistogramRequest MemoHistogram(const std::string& column, double hi,
                               size_t bins, const Predicate& where,
                               EngineMechanism mechanism) {
  return HistogramRequest{
      HistogramQuery{column, *Domain1D::Numeric(0, hi, bins), where}, 0.5,
      mechanism};
}

TEST(QueryServiceMemoTest, RepeatedCountsAndHistogramsReplayOnOneGeneration) {
  ThreadPool pool(2);
  auto service = MemoService(&pool, 3000);
  const auto session = service->OpenSession("alice");
  const Predicate w1 = Predicate::Le("age", Value(40));
  const Predicate w2 = Predicate::And(Predicate::Ge("zip", Value(2500)),
                                      Predicate::Eq("opt_in", Value(1)));
  std::vector<ServiceRequest> batch;
  batch.emplace_back(CountRequest{w1, 0.5});
  batch.emplace_back(CountRequest{w1, 0.5});
  batch.emplace_back(CountRequest{w2, 0.5});
  batch.emplace_back(
      MemoHistogram("age", 100, 16, w2, EngineMechanism::kOsdpLaplaceL1));
  batch.emplace_back(
      MemoHistogram("age", 100, 16, w2, EngineMechanism::kOsdpLaplaceL1));
  batch.emplace_back(CountRequest{w2, 0.5});

  AnswerAndReplay(service.get(), session, batch);
  const MaskCache::Stats warm = service->cache_stats();
  // Three distinct aggregates: two counts and one x_ns histogram (racing
  // slots of the first batch may both compute one).
  EXPECT_GE(warm.aggregate_misses, 3u);
  for (int round = 0; round < 3; ++round) {
    AnswerAndReplay(service.get(), session, batch);
  }
  const MaskCache::Stats stats = service->cache_stats();
  EXPECT_EQ(stats.aggregate_misses, warm.aggregate_misses)
      << "a warm generation recomputed an aggregate";
  EXPECT_EQ(stats.aggregate_hits - warm.aggregate_hits, 3u * batch.size());
  EXPECT_EQ(stats.entries, 2u);
}

TEST(QueryServiceMemoTest, OneWhereClauseHoldsHistogramsOfTwoDomains) {
  ThreadPool pool(2);
  auto service = MemoService(&pool, 3000);
  const auto session = service->OpenSession("alice");
  const Predicate where = Predicate::Eq("opt_in", Value(1));
  const std::vector<ServiceRequest> zip{MemoHistogram(
      "zip", 10000, 4096, where, EngineMechanism::kOsdpLaplaceL1)};
  const std::vector<ServiceRequest> age{
      MemoHistogram("age", 100, 100, where, EngineMechanism::kOsdpLaplaceL1)};

  AnswerAndReplay(service.get(), session, zip);
  AnswerAndReplay(service.get(), session, age);
  const MaskCache::Stats first = service->cache_stats();
  EXPECT_EQ(first.aggregate_misses, 2u);
  EXPECT_EQ(first.entries, 1u);
  EXPECT_GE(first.bytes, (4096 + 100) * sizeof(double))
      << "attached histograms were not charged";
  AnswerAndReplay(service.get(), session, zip);
  AnswerAndReplay(service.get(), session, age);
  const MaskCache::Stats second = service->cache_stats();
  EXPECT_EQ(second.aggregate_misses, 2u);
  EXPECT_EQ(second.aggregate_hits, 2u);
  EXPECT_EQ(second.bytes, first.bytes);
}

TEST(QueryServiceMemoTest, XOnlyThenXnsOnlyThenBothShareOneEntry) {
  ThreadPool pool(2);
  auto service = MemoService(&pool, 3000);
  const auto session = service->OpenSession("alice");
  const Predicate where = Predicate::Le("zip", Value(7000));
  const auto ask = [&](EngineMechanism mechanism) {
    AnswerAndReplay(service.get(), session,
                    {MemoHistogram("age", 100, 100, where, mechanism)});
    return service->cache_stats();
  };
  MaskCache::Stats stats = ask(EngineMechanism::kDawa);  // x
  EXPECT_EQ(stats.aggregate_misses, 1u);
  EXPECT_EQ(stats.aggregate_hits, 0u);
  stats = ask(EngineMechanism::kOsdpLaplaceL1);  // x_ns
  EXPECT_EQ(stats.aggregate_misses, 2u);
  EXPECT_EQ(stats.aggregate_hits, 0u);
  stats = ask(EngineMechanism::kDawaz);  // both, both memoized
  EXPECT_EQ(stats.aggregate_misses, 2u);
  EXPECT_EQ(stats.aggregate_hits, 2u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(QueryServiceMemoTest, IngestBetweenRepeatsRecomputesTheNextGeneration) {
  ThreadPool pool(2);
  auto service = MemoService(&pool, 3000);
  const auto session = service->OpenSession("alice");
  const Predicate where = Predicate::Le("age", Value(50));
  std::vector<ServiceRequest> batch;
  batch.emplace_back(CountRequest{where, 0.5});
  batch.emplace_back(
      MemoHistogram("age", 100, 20, where, EngineMechanism::kDawaz));

  AnswerAndReplay(service.get(), session, batch);
  AnswerAndReplay(service.get(), session, batch);
  const MaskCache::Stats before = service->cache_stats();
  EXPECT_EQ(before.aggregate_misses, 3u);  // count, x, x_ns
  EXPECT_EQ(before.extensions, 0u);

  ASSERT_EQ(*service->Ingest(CensusRows(97, 0xB7)), 1u);
  AnswerAndReplay(service.get(), session, batch);
  AnswerAndReplay(service.get(), session, batch);
  const MaskCache::Stats after = service->cache_stats();
  EXPECT_EQ(after.aggregate_misses, 6u)
      << "the new generation must recompute every aggregate once";
  EXPECT_EQ(after.aggregate_hits - before.aggregate_hits, 3u);
  // Every miss of the new generation extended generation 0's entry — its
  // mask words and all three aggregates — instead of rescanning. (The count
  // and the histogram may race to the first miss, so there may be two.)
  EXPECT_GE(after.extensions, 1u);
  EXPECT_EQ(after.extensions, after.misses - before.misses)
      << "the new generation was rescanned, not extended";
}

TEST(QueryServiceMemoTest, UnfilteredHistogramIsTheTrueClause) {
  // A histogram with no WHERE clause looks up the TRUE clause's entry, so
  // it is memoized and extended like any other clause, and it shares the
  // entry of a Predicate::True() count.
  ThreadPool pool(2);
  const ServiceRequest unfiltered = HistogramRequest{
      HistogramQuery{"age", *Domain1D::Numeric(0, 100, 16), std::nullopt},
      0.5, EngineMechanism::kOsdpLaplaceL1};
  const auto ask = [](QueryService* service, QueryService::SessionId session,
                      const ServiceRequest& request) {
    const SnapshotPtr snap = service->current_snapshot();
    const Result<ServiceAnswer> answer =
        service->AnswerBatch(session, {request})[0];
    OSDP_CHECK(answer.ok());
    ExpectReplays(request, *answer, *snap, session);
    return *answer;
  };

  auto service = MemoService(&pool, 3000);
  const auto session = service->OpenSession("alice");
  EXPECT_FALSE(ask(service.get(), session, unfiltered).cache_hit);
  const MaskCache::Stats first = service->cache_stats();
  EXPECT_EQ(first.aggregate_misses, 1u);
  EXPECT_TRUE(ask(service.get(), session, unfiltered).cache_hit);
  const MaskCache::Stats repeat = service->cache_stats();
  EXPECT_EQ(repeat.aggregate_misses, first.aggregate_misses)
      << "a repeated unfiltered histogram re-accumulated the table";
  EXPECT_EQ(repeat.aggregate_hits, first.aggregate_hits + 1);
  EXPECT_EQ(repeat.entries, 1u);

  ASSERT_EQ(*service->Ingest(CensusRows(97, 0xB9)), 1u);
  EXPECT_FALSE(ask(service.get(), session, unfiltered).cache_hit);
  const MaskCache::Stats extended = service->cache_stats();
  EXPECT_EQ(extended.extensions, repeat.extensions + 1);
  EXPECT_EQ(extended.aggregate_misses, repeat.aggregate_misses + 1);
  EXPECT_TRUE(ask(service.get(), session, unfiltered).cache_hit);

  auto counted = MemoService(&pool, 3000);
  const auto bob = counted->OpenSession("bob");
  EXPECT_FALSE(
      ask(counted.get(), bob, CountRequest{Predicate::True(), 0.5}).cache_hit);
  EXPECT_TRUE(ask(counted.get(), bob, unfiltered).cache_hit)
      << "the unfiltered histogram missed the TRUE count's entry";
  EXPECT_EQ(counted->cache_stats().entries, 1u);
}

// Answers `batch` on generation 0, so its clause's mask and aggregates are
// cached, then ingests `rows` rows: the next query of the clause extends.
void FillThenIngest(QueryService* service, QueryService::SessionId session,
                    const std::vector<ServiceRequest>& batch, size_t rows,
                    uint64_t seed) {
  AnswerAndReplay(service, session, batch);
  ASSERT_TRUE(service->Ingest(CensusRows(rows, seed)).ok());
}

TEST(QueryServiceMemoTest, FaultsAcrossAnExtensionStoreNothingAndRefund) {
  // Serial pool, one shard. For each fault point an extended count or
  // histogram passes through, fire its n-th hit for every n the query
  // reaches: the query fails with a full refund and no ledger entry, the
  // aggregate it was filling is not stored (the retry recomputes it), and
  // the retry and a repeat both match their replays.
  const Predicate where = Predicate::Le("age", Value(33));
  const std::vector<std::vector<ServiceRequest>> batches = {
      {CountRequest{where, 0.5}},
      {MemoHistogram("age", 100, 20, where, EngineMechanism::kDawaz)}};
  for (const char* point :
       {"thread_pool/chunk", "mask_cache/insert", "mask_cache/attach"}) {
    for (size_t b = 0; b < batches.size(); ++b) {
      const std::vector<ServiceRequest>& batch = batches[b];
      size_t fired = 0;
      for (uint64_t nth = 1; nth <= 16; ++nth) {
        ThreadPool pool(0);
        QueryService::Options opts;
        opts.pool = &pool;
        opts.num_shards = 1;
        opts.per_session_epsilon = 1e6;
        opts.seed = kMemoRootSeed;
        auto service = *QueryService::Create(CensusEngine(1e7, 3000), opts);
        const auto session = service->OpenSession("alice");
        FillThenIngest(service.get(), session, batch, 97, 0xB9 + nth);
        const double service_before = service->remaining_budget();
        const double session_before = *service->session_remaining(session);
        const size_t ledger_before = service->ledger().size();
        const MaskCache::Stats cache_before = service->cache_stats();

        bool failed = false;
        {
          ScopedFault fault(point, {nth, 0, 1});
          const auto result =
              std::move(service->AnswerBatch(session, batch)[0]);
          failed = !result.ok();
          if (failed) {
            EXPECT_EQ(result.status().code(), StatusCode::kInternal);
            EXPECT_EQ(FaultRegistry::Global().fires(point), 1u);
          }
        }
        if (!failed) break;  // the query no longer reaches hit `nth`
        ++fired;
        const std::string label = std::string(point) + " hit " +
                                  std::to_string(nth) + " batch " +
                                  std::to_string(b);
        EXPECT_EQ(service->remaining_budget(), service_before) << label;
        EXPECT_EQ(*service->session_remaining(session), session_before)
            << label;
        EXPECT_EQ(service->ledger().size(), ledger_before) << label;
        const MaskCache::Stats failed_state = service->cache_stats();
        if (std::string(point) == "mask_cache/insert") {
          EXPECT_EQ(failed_state.entries, cache_before.entries) << label;
        }

        AnswerAndReplay(service.get(), session, batch);
        const MaskCache::Stats retried = service->cache_stats();
        EXPECT_GT(retried.aggregate_misses, failed_state.aggregate_misses)
            << label << ": the failed fill was stored";
        EXPECT_EQ(retried.extensions, 1u) << label;
        AnswerAndReplay(service.get(), session, batch);
        EXPECT_EQ(service->cache_stats().aggregate_misses,
                  retried.aggregate_misses)
            << label << ": the retry's fill was not stored";
      }
      EXPECT_GT(fired, 0u) << point << " never fired in batch " << b;
    }
  }
}

TEST(QueryServiceMemoTest, DeadlinesAcrossAnExtensionStoreNothing) {
  // Each round ingests, then sweeps a count's deadline across the extension
  // of the previous generation: an aborted attempt refunds in full and
  // leaves nothing wrong behind — the next count and histogram of the same
  // clause match their replays.
  ThreadPool pool(2);
  auto service = MemoService(&pool, 30000);
  const auto session = service->OpenSession("alice");
  const Predicate where = Predicate::And(Predicate::Le("age", Value(61)),
                                         Predicate::Ge("zip", Value(1234)));
  const std::vector<ServiceRequest> follow_up = {
      CountRequest{where, 0.5},
      MemoHistogram("age", 100, 20, where, EngineMechanism::kDawaz)};
  AnswerAndReplay(service.get(), session, follow_up);
  size_t tripped = 0;
  for (int budget_us = 0; budget_us <= 200; budget_us += 10) {
    const uint64_t seed = 0xC0 + static_cast<uint64_t>(budget_us);
    ASSERT_TRUE(service->Ingest(CensusRows(4099, seed)).ok());
    const double service_before = service->remaining_budget();
    const size_t ledger_before = service->ledger().size();
    CountRequest request{where, 0.5};
    request.deadline = std::chrono::steady_clock::now() +
                       std::chrono::microseconds(budget_us);
    const std::vector<ServiceRequest> batch{request};
    const SnapshotPtr snap = service->current_snapshot();
    const auto result = std::move(service->AnswerBatch(session, batch)[0]);
    if (result.ok()) {
      ExpectReplays(request, *result, *snap, session);
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
      EXPECT_EQ(service->remaining_budget(), service_before);
      EXPECT_EQ(service->ledger().size(), ledger_before);
      ++tripped;
    }
    AnswerAndReplay(service.get(), session, follow_up);
  }
  EXPECT_GT(tripped, 0u);
  EXPECT_GT(service->cache_stats().extensions, 0u);
}

// Twelve queries on one WHERE clause, every third a DAWAz histogram.
std::vector<ServiceRequest> OneClauseBatch() {
  const Predicate where = Predicate::Le("income", Value(52000.0));
  std::vector<ServiceRequest> batch;
  for (int q = 0; q < 12; ++q) {
    if (q % 3 == 2) {
      batch.emplace_back(
          MemoHistogram("age", 100, 25, where, EngineMechanism::kDawaz));
    } else {
      batch.emplace_back(CountRequest{where, 0.5});
    }
  }
  return batch;
}

TEST(QueryServiceMemoTest, MidFlightCancelAcrossAnExtensionKeepsTheBooks) {
  // A token fired while a batch of one clause extends the previous
  // generation: the cancel race, and every answer of the clause afterwards,
  // must leave a sound run.
  const SoakConfig config = CancelRaceConfig(30000, 12);
  SoakRun run = OpenSoak(config);
  const std::vector<ServiceRequest> batch = OneClauseBatch();
  SoakSubmit(&run, 0, batch);
  SoakIngest(&run, CensusRows(8191, 0xCA));
  SubmitRacingACancel(&run, batch, std::chrono::microseconds(100));
  SoakSubmit(&run, 0, batch);
  SoakSubmit(&run, 0, batch);
  FinishSoak(&run);
  ExpectSound(config, run);
  EXPECT_GT(run.service->cache_stats().extensions, 0u);
}

TEST(QueryServiceMemoTest, FaultInsideTheCountStoresNothing) {
  // Serial pool, one shard: the thread_pool/chunk fault point is hit once by
  // the batch's WHERE scan, once by its execution loop, then once by the
  // count's AND + popcount, where the third hit fires. The query fails and
  // refunds; the mask stays cached, and the next count recomputes the
  // aggregate.
  ThreadPool pool(0);
  QueryService::Options opts;
  opts.pool = &pool;
  opts.num_shards = 1;
  opts.per_session_epsilon = 1e6;
  opts.seed = kMemoRootSeed;
  auto service = *QueryService::Create(CensusEngine(1e7, 3000), opts);
  const auto session = service->OpenSession("alice");
  const Predicate where = Predicate::Le("age", Value(33));
  {
    ScopedFault fault("thread_pool/chunk", {3, 0, 1});
    const auto failed = service->AnswerCount(session, where, 0.5);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
    EXPECT_EQ(FaultRegistry::Global().fires("thread_pool/chunk"), 1u);
  }
  EXPECT_EQ(service->ledger().size(), 0u);
  MaskCache::Stats stats = service->cache_stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.aggregate_misses, 1u);

  const std::vector<ServiceRequest> batch{CountRequest{where, 0.5}};
  AnswerAndReplay(service.get(), session, batch);
  AnswerAndReplay(service.get(), session, batch);
  stats = service->cache_stats();
  EXPECT_EQ(stats.aggregate_misses, 2u);
  EXPECT_EQ(stats.aggregate_hits, 1u);
}

TEST(QueryServiceMemoTest, DeadlinesTrippingAnywhereInACountStoreNothing) {
  // Sweep the deadline across a count's execution — before its lookup,
  // inside the scan, after it but before the count is stored (the entry
  // check and the AND + popcount), at the final check — with a new WHERE
  // clause at every attempt, so every attempt scans. The table is large
  // and split into 16 shards, each polling the deadline before it runs, so
  // the scan and the AND + popcount each outlast several sweep steps. After
  // a trip the same clause is asked again, and what the trip left behind
  // says where it struck: no lookup, no mask, a mask with no count, or a
  // stored count. Then sweep a two-count batch whose requests carry
  // deadlines of their own: its shared scan polls the later one, so the
  // earlier request may trip after the scan it shared. The pair's clauses
  // are new at every attempt, so every shared scan is cold. Whatever an
  // aborted attempt left behind, the next query of the same clause must
  // still match its replay.
  ThreadPool pool(2);
  {
    QueryService::Options opts;
    opts.pool = &pool;
    opts.num_shards = 16;
    opts.per_session_epsilon = 1e6;
    opts.seed = kMemoRootSeed;
    auto service = *QueryService::Create(CensusEngine(1e7, 1 << 20), opts);
    const auto session = service->OpenSession("alice");
    const auto fresh = [](int attempt) {
      return Predicate::And(Predicate::Le("age", Value(61)),
                            Predicate::Ge("zip", Value(1000 + attempt)));
    };
    // The sweep step: 10 us, or a 64th of a warm count of a new clause
    // where that is longer (a sanitizer build), so the sweep spans a count
    // in at most about 64 attempts whatever the build.
    AnswerAndReplay(service.get(), session, {CountRequest{fresh(-2), 0.5}});
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(service->AnswerCount(session, fresh(-1), 0.5).ok());
    const auto step = std::max<std::chrono::steady_clock::duration>(
        std::chrono::microseconds(10),
        (std::chrono::steady_clock::now() - t0) / 64);

    enum Struck { kBeforeLookup, kScan, kBeforeCount, kFinalCheck };
    size_t struck[4] = {};
    size_t asked = 2;
    size_t tripped = 0;
    size_t delivered_in_a_row = 0;
    for (int attempt = 0; delivered_in_a_row < 3 && attempt < 1000;
         ++attempt) {
      CountRequest request{fresh(attempt), 0.5};
      ++asked;
      const MaskCache::Stats before = service->cache_stats();
      const SnapshotPtr snap = service->current_snapshot();
      request.deadline = std::chrono::steady_clock::now() + attempt * step;
      const auto result =
          std::move(service->AnswerBatch(session, {request})[0]);
      if (result.ok()) {
        ExpectReplays(request, *result, *snap, session);
        ++delivered_in_a_row;
        continue;
      }
      delivered_in_a_row = 0;
      EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
      ++tripped;
      const MaskCache::Stats at_trip = service->cache_stats();
      const CountRequest again{request.where, 0.5};
      const auto retry = std::move(service->AnswerBatch(session, {again})[0]);
      ASSERT_TRUE(retry.ok()) << retry.status().ToString();
      ExpectReplays(again, *retry, *snap, session);
      if (at_trip.misses == before.misses) {
        ++struck[kBeforeLookup];
      } else if (!retry->cache_hit) {
        ++struck[kScan];
      } else if (service->cache_stats().aggregate_misses >
                 at_trip.aggregate_misses) {
        ++struck[kBeforeCount];
      } else {
        ++struck[kFinalCheck];
      }
    }
    EXPECT_GE(delivered_in_a_row, 3u) << "the sweep never outlasted a count";
    EXPECT_GT(struck[kScan], 0u) << "no deadline struck inside a scan";
    EXPECT_GT(struck[kBeforeCount], 0u)
        << "no deadline struck between a scan and its count";
    // One fill per clause asked, plus at most one more per attempt aborted
    // inside one.
    EXPECT_LE(service->cache_stats().aggregate_misses, asked + tripped)
        << "a delivered count recomputed a memoized aggregate";
  }

  auto service = MemoService(&pool, 30000);
  const auto session = service->OpenSession("alice");
  size_t pair_asked = 0;
  size_t pair_tripped = 0;
  for (int budget_us = 0; budget_us <= 400; budget_us += 10) {
    const int64_t age = 20 + budget_us / 10;
    const std::vector<Predicate> clauses{
        Predicate::And(Predicate::Le("age", Value(age)),
                       Predicate::Lt("zip", Value(7321))),
        Predicate::Gt("income", Value(30000.0 + 10 * budget_us))};
    pair_asked += clauses.size();
    const auto now = std::chrono::steady_clock::now();
    std::vector<ServiceRequest> batch;
    for (size_t i = 0; i < clauses.size(); ++i) {
      CountRequest request{clauses[i], 0.5};
      request.deadline =
          now + std::chrono::microseconds(budget_us * (1 + 2 * i));
      batch.emplace_back(request);
    }
    const SnapshotPtr snap = service->current_snapshot();
    const auto results = service->AnswerBatch(session, batch);
    for (size_t i = 0; i < batch.size(); ++i) {
      if (!results[i].ok()) {
        EXPECT_EQ(results[i].status().code(), StatusCode::kDeadlineExceeded);
        ++pair_tripped;
        AnswerAndReplay(service.get(), session,
                        {CountRequest{clauses[i], 0.5}});
        continue;
      }
      ExpectReplays(batch[i], *results[i], *snap, session);
    }
  }
  // One fill per new clause, plus at most one more per request aborted
  // inside one.
  EXPECT_LE(service->cache_stats().aggregate_misses,
            pair_asked + pair_tripped)
      << "a delivered pair count recomputed a memoized aggregate";
}

TEST(QueryServiceMemoTest, MidFlightCancelStoresNothingWrong) {
  // A token fired while a batch of one repeated WHERE clause executes. The
  // race decides which slots deliver; every delivered answer, and every
  // answer of the same clause afterwards, matches its replay.
  const SoakConfig config = CancelRaceConfig(30000, 12);
  SoakRun run = OpenSoak(config);
  const std::vector<ServiceRequest> batch = OneClauseBatch();
  SubmitRacingACancel(&run, batch, std::chrono::microseconds(150));
  SoakSubmit(&run, 0, batch);
  SoakSubmit(&run, 0, batch);
  FinishSoak(&run);
  ExpectSound(config, run);
}

TEST(QueryServiceMemoTest, LoneClauseIsLookedUpBeforeExecution) {
  // A one-query batch looks its WHERE clause up in the batch phase, like
  // every batch: a query/execute fault fails the count after its mask was
  // built and cached, and the retry hits that entry.
  ThreadPool pool(0);
  auto service = MemoService(&pool, 5000);
  const auto session = service->OpenSession("alice");
  const Predicate fresh = Predicate::Le("age", Value(37));
  {
    ScopedFault fault("query/execute", {1, 0, 1});
    const auto failed = service->AnswerCount(session, fresh, 0.5);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
  }
  EXPECT_EQ(service->ledger().size(), 0u);
  MaskCache::Stats stats = service->cache_stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.aggregate_misses, 0u);

  const std::vector<ServiceRequest> batch{CountRequest{fresh, 0.5}};
  const SnapshotPtr snap = service->current_snapshot();
  const auto retry = std::move(service->AnswerBatch(session, batch)[0]);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_TRUE(retry->cache_hit);
  ExpectReplays(batch[0], *retry, *snap, session);
  stats = service->cache_stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(QueryServiceMemoTest, SharedLookupMatchesOneQueryPerBatchTwin) {
  // A batch looks its WHERE clauses up together and builds its misses in
  // one shared pass. Fresh counts, a repeated clause, a hot hit and a
  // filtered DAWA histogram — then a lone clause beside a sample, which
  // looks nothing up, and after an ingest, extensions beside a cold clause —
  // answer bit for bit, with the same seqs, hit flags and cache counters as
  // a twin that gets each request as its own batch on an inline pool.
  ThreadPool pool(2);
  ThreadPool inline_pool(0);
  auto service = MemoService(&pool, 5000);
  auto twin = MemoService(&inline_pool, 5000);
  const auto session = service->OpenSession("alice");
  const auto twin_session = twin->OpenSession("alice");
  ASSERT_EQ(session, twin_session);

  const Predicate hot = Predicate::Le("age", Value(40));
  const Predicate f1 = Predicate::And(Predicate::Ge("age", Value(30)),
                                      Predicate::Ge("zip", Value(4000)));
  const Predicate f2 = Predicate::Gt("income", Value(41000.0));
  const Predicate f3 = Predicate::In("race", {Value("C1"), Value("C3")});
  const Predicate w = Predicate::Or(Predicate::Lt("zip", Value(3000)),
                                    Predicate::Eq("race", Value("C2")));
  for (QueryService* s : {service.get(), twin.get()}) {
    ASSERT_TRUE(s->AnswerCount(session, hot, 0.5).ok());
  }

  std::vector<bool> hits;
  const auto check = [&](const std::vector<ServiceRequest>& batch) {
    const SnapshotPtr snap = service->current_snapshot();
    const auto answers = service->AnswerBatch(session, batch);
    hits.clear();
    for (size_t i = 0; i < batch.size(); ++i) {
      const auto want = twin->AnswerBatch(twin_session, {batch[i]});
      ASSERT_TRUE(answers[i].ok()) << answers[i].status().ToString();
      ASSERT_TRUE(want[0].ok()) << want[0].status().ToString();
      EXPECT_EQ(answers[i]->seq, want[0]->seq) << "slot " << i;
      EXPECT_EQ(answers[i]->cache_hit, want[0]->cache_hit) << "slot " << i;
      hits.push_back(answers[i]->cache_hit);
      EXPECT_EQ(answers[i]->count, want[0]->count) << "slot " << i;
      EXPECT_EQ(answers[i]->histogram.has_value(),
                want[0]->histogram.has_value());
      if (answers[i]->histogram.has_value()) {
        EXPECT_EQ(answers[i]->histogram->counts(),
                  want[0]->histogram->counts())
            << "slot " << i;
      }
      ExpectReplays(batch[i], *answers[i], *snap, session);
    }
    const MaskCache::Stats got = service->cache_stats();
    const MaskCache::Stats expected = twin->cache_stats();
    EXPECT_EQ(got.hits, expected.hits);
    EXPECT_EQ(got.misses, expected.misses);
    EXPECT_EQ(got.extensions, expected.extensions);
    EXPECT_EQ(got.entries, expected.entries);
  };

  std::vector<ServiceRequest> batch;
  batch.emplace_back(CountRequest{f1, 0.5});
  batch.emplace_back(CountRequest{f2, 0.5});
  batch.emplace_back(CountRequest{f1, 0.5});
  batch.emplace_back(CountRequest{hot, 0.5});
  batch.emplace_back(MemoHistogram("age", 100, 20, w, EngineMechanism::kDawa));
  batch.emplace_back(CountRequest{f3, 0.5});
  check(batch);
  EXPECT_EQ(hits,
            (std::vector<bool>{false, false, true, true, false, false}));

  const Predicate lone = Predicate::And(Predicate::Ge("age", Value(25)),
                                        Predicate::Lt("zip", Value(6000)));
  const std::vector<ServiceRequest> beside_a_sample = {CountRequest{lone, 0.5},
                                                       SampleRequest{0.5}};
  check(beside_a_sample);
  EXPECT_EQ(hits, (std::vector<bool>{false, false}));
  check(beside_a_sample);
  EXPECT_EQ(hits, (std::vector<bool>{true, false}));

  for (QueryService* s : {service.get(), twin.get()}) {
    ASSERT_TRUE(s->Ingest(CensusRows(700, 0x5EED)).ok());
  }
  const uint64_t extensions = service->cache_stats().extensions;
  batch.emplace_back(CountRequest{Predicate::Ge("age", Value(65)), 0.5});
  check(batch);
  EXPECT_EQ(service->cache_stats().extensions - extensions, 5u);
}

TEST(QueryServiceMemoTest, CountBatchRunsOnItsCallerHistogramBatchSpreads) {
  // A batch of counts executes as one chunk on the calling thread: however
  // many hits and misses it holds, it hands the pool no task (one shard, so
  // no scan spreads either). A batch holding a histogram spreads its slots
  // over the pool's one worker, and so does a batch that is all counts only
  // after a malformed histogram was refused. Every answer replays, and the
  // ledger and the outcome counters match the deliveries.
  ThreadPool pool(1);
  pool.set_metrics_enabled(true);
  QueryService::Options opts;
  opts.pool = &pool;
  opts.num_shards = 1;
  opts.per_session_epsilon = 1e6;
  opts.seed = kMemoRootSeed;
  auto service = *QueryService::Create(CensusEngine(1e7, 5000), opts);
  const auto session = service->OpenSession("alice");
  const Predicate hot = Predicate::Le("age", Value(40));
  const Predicate fresh = Predicate::And(Predicate::Ge("age", Value(30)),
                                         Predicate::Lt("zip", Value(5000)));
  const Predicate other = Predicate::Gt("income", Value(41000.0));
  AnswerAndReplay(service.get(), session, {CountRequest{hot, 0.5}});
  size_t delivered = 1;
  const auto tasks_for = [&](const std::vector<ServiceRequest>& batch) {
    const uint64_t before = pool.stats().tasks_submitted;
    AnswerAndReplay(service.get(), session, batch);
    delivered += batch.size();
    return pool.stats().tasks_submitted - before;
  };

  const MaskCache::Stats before = service->cache_stats();
  EXPECT_EQ(tasks_for({CountRequest{hot, 0.5}, CountRequest{fresh, 0.5},
                       CountRequest{hot, 0.5}, CountRequest{fresh, 0.5}}),
            0u);
  MaskCache::Stats after = service->cache_stats();
  EXPECT_EQ(after.hits - before.hits, 3u);
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.aggregate_misses - before.aggregate_misses, 1u);

  EXPECT_GE(tasks_for({CountRequest{hot, 0.5},
                       MemoHistogram("age", 100, 20, other,
                                     EngineMechanism::kOsdpLaplaceL1),
                       CountRequest{other, 0.5}}),
            1u);

  // The refused histogram never reaches execution, so only counts remain.
  const std::vector<ServiceRequest> with_refused = {
      CountRequest{fresh, 0.5},
      MemoHistogram("no_such_column", 100, 20, hot, EngineMechanism::kDawa),
      CountRequest{other, 0.5}};
  const uint64_t tasks_before = pool.stats().tasks_submitted;
  const SnapshotPtr snap = service->current_snapshot();
  const auto refused = service->AnswerBatch(session, with_refused);
  EXPECT_EQ(pool.stats().tasks_submitted, tasks_before);
  EXPECT_EQ(refused[1].status().code(), StatusCode::kNotFound);
  for (size_t i : {0, 2}) {
    ASSERT_TRUE(refused[i].ok()) << refused[i].status().ToString();
    ExpectReplays(with_refused[i], *refused[i], *snap, session);
    ++delivered;
  }

  EXPECT_EQ(service->ledger().size(), delivered);
  const obs::MetricsSnapshot scrape = service->MetricsSnapshot();
  EXPECT_EQ(scrape.FindCounter("service.queries_delivered")->value, delivered);
  for (const char* failure :
       {"service.queries_failed", "service.queries_cancelled",
        "service.queries_deadline_exceeded"}) {
    EXPECT_EQ(scrape.FindCounter(failure)->value, 0u) << failure;
  }
}

}  // namespace
}  // namespace osdp
