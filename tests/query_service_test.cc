// Tests for the concurrent OSDP QueryService: determinism across thread
// counts and interleavings, two-budget safety under concurrency, no-charge
// validation failures, the composed guarantee of the thread-safe ledger, and
// the streaming ingest path — snapshot isolation and bit-identical serial
// replay of (generation, session, seq) under writer/reader races.
//
// The concurrency suites here are the primary ThreadSanitizer and
// ASan+UBSan targets (the CI tsan and asan-ubsan jobs run exactly this
// binary plus runtime_test).

#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/benchdata/table_gen.h"
#include "src/common/cancel.h"
#include "src/common/distributions.h"
#include "src/common/fault.h"
#include "src/common/random.h"
#include "src/core/engine.h"
#include "src/data/compiled_predicate.h"
#include "src/data/predicate.h"
#include "src/hist/histogram_query.h"
#include "src/mech/histogram_mechanism.h"
#include "src/mech/osdp_rr.h"
#include "src/policy/policy.h"
#include "src/runtime/query_service.h"
#include "src/runtime/thread_pool.h"

namespace osdp {
namespace {

Policy TestPolicy() {
  return Policy::SensitiveWhen(
      Predicate::Or(Predicate::Eq("opt_in", Value(0)),
                    Predicate::Lt("age", Value(18))),
      "opt_out_or_minor");
}

OsdpEngine TestEngine(double total_epsilon, size_t rows = 3000) {
  CensusTableOptions topts;
  topts.num_rows = rows;
  topts.seed = 0x9A;
  OsdpEngine::Options opts;
  opts.total_epsilon = total_epsilon;
  return *OsdpEngine::Create(MakeCensusTable(topts), TestPolicy(), opts);
}

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
    auto service = *QueryService::Create(TestEngine(10.0), opts);
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
  auto engine = TestEngine(1000.0);
  const Table& data = engine.data();
  const CompiledPredicate compiled = *CompiledPredicate::Compile(
      Predicate::Le("age", Value(40)), data.schema());
  RowMask truth = compiled.EvalMask(data);
  truth.AndWith(engine.non_sensitive_mask());
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
  auto service = *QueryService::Create(TestEngine(1.0), {});
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

TEST(QueryServiceTest, PerSessionBudgetIsEnforcedIndependently) {
  QueryService::Options opts;
  opts.per_session_epsilon = 0.25;
  auto service = *QueryService::Create(TestEngine(10.0), opts);
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
  auto service = *QueryService::Create(TestEngine(0.5), opts);
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
  OsdpEngine engine = TestEngine(1e6, 300);
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
  auto service = *QueryService::Create(TestEngine(1.0), {});
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
  auto service = *QueryService::Create(TestEngine(10.0), {});
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
    EXPECT_EQ(QueryService::Create(TestEngine(1.0, 10), opts).status().code(),
              StatusCode::kInvalidArgument);
  }
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
    service_ = *QueryService::Create(TestEngine(total_epsilon, rows), opts);
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
  EXPECT_GT(sample.num_rows(), 0u);
  EXPECT_EQ(sample.snapshot(), s.service().current_snapshot());
  const Policy policy = TestPolicy();
  sample.ForEachRow([&](size_t row) {
    EXPECT_TRUE(policy.IsNonSensitive(sample.table(), row)) << "row " << row;
  });
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
  CensusTableOptions batch_opts;
  batch_opts.num_rows = 130;
  batch_opts.seed = 0xB3;
  const Table batch = MakeCensusTable(batch_opts);
  ASSERT_EQ(*s.service().Ingest(batch), 1u);
  const ServiceAnswer after = *s.Ask(SampleRequest{kEps});
  EXPECT_EQ(before.generation, 0u);
  EXPECT_EQ(after.generation, 1u);

  // Rebuild both generations from scratch and rerun OsdpRR on each answer's
  // (seed, session, seq, generation) stream.
  CensusTableOptions seed_opts;
  seed_opts.num_rows = kSeedRows;
  seed_opts.seed = 0x9A;  // TestEngine's table
  std::vector<Table> generations{MakeCensusTable(seed_opts)};
  Table grown = generations[0];
  ASSERT_TRUE(grown.AppendRows(batch).ok());
  generations.push_back(std::move(grown));
  const Policy policy = TestPolicy();
  for (const ServiceAnswer* answer : {&before, &after}) {
    ASSERT_TRUE(answer->sample.has_value());
    const Table& table = generations[answer->generation];
    Rng rng(QueryService::QuerySeed(QueryService::Options{}.seed, s.session(),
                                    answer->seq, answer->generation));
    const TableView expected = *OsdpRRReleaseView(table, policy, kEps, rng);
    // The sample still reads its own generation after the ingest.
    EXPECT_EQ(answer->sample->snapshot()->generation, answer->generation);
    EXPECT_EQ(answer->sample->table().num_rows(), table.num_rows());
    EXPECT_EQ(answer->sample->ToIndices(), expected.ToIndices())
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
  auto service = *QueryService::Create(TestEngine(kTotal, 500), opts);

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

  auto quiet = *QueryService::Create(TestEngine(1000.0, 500), opts);
  const std::vector<double> baseline = run_solo(*quiet, false);

  auto noisy = *QueryService::Create(TestEngine(1000.0, 500), opts);
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
  OsdpEngine engine = TestEngine(10.0, 1000);
  const Table table = engine.data();
  auto service = *QueryService::Create(std::move(engine), opts);
  const QueryService::SessionId session = service->OpenSession("alice");

  std::vector<ServiceRequest> batch;
  for (int i = 0; i < 8; ++i) batch.emplace_back(SampleRequest{kEps});
  const Policy policy = TestPolicy();
  for (const auto& result : service->AnswerBatch(session, batch)) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_TRUE(result->sample.has_value());
    Rng rng(QueryService::QuerySeed(opts.seed, session, result->seq,
                                    result->generation));
    EXPECT_EQ(result->sample->ToIndices(),
              OsdpRRReleaseView(table, policy, kEps, rng)->ToIndices())
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
  auto engine = TestEngine(10000.0, 200);
  const Policy policy = TestPolicy();
  Table accumulated = engine.data();
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

  CensusTableOptions batch_opts;
  batch_opts.num_rows = 150;
  batch_opts.seed = 0xB1;
  const Table batch = MakeCensusTable(batch_opts);
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
  Table wrong(Schema({{"other", ValueType::kInt64}}));
  ASSERT_TRUE(wrong.AppendRow({Value(1)}).ok());
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
    auto service = *QueryService::Create(TestEngine(10.0), opts);
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
    CensusTableOptions batch_opts;
    batch_opts.num_rows = 123;
    batch_opts.seed = 0xB2;
    ASSERT_EQ(*service->Ingest(MakeCensusTable(batch_opts)), 1u);
    record(service->AnswerBatch(session, TestBatch()));
    answers_by_config.push_back(std::move(answers));
  }
  for (size_t i = 1; i < answers_by_config.size(); ++i) {
    EXPECT_EQ(answers_by_config[i], answers_by_config[0]);
  }
}

// The streaming stress harness: one writer thread publishes generations
// while analyst sessions hammer queries from other threads. Every answer
// records the generation it was served against; afterwards each one must
// be bit-identical to a serial replay of (generation, session, seq) built
// from scratch — which proves both determinism and snapshot isolation (an
// answer computed from torn rows/mask bits could not match any replayed
// generation). With `mask_cache_bytes` non-zero the same replay contract
// also pins the cache: a hit that served a wrong or stale mask could not
// match the from-scratch recomputation of its recorded generation.
//
// `metrics_enabled` runs the identical workload with the observability layer
// on or off: the replay contract must hold either way, which is the
// determinism half of the "observation never influences answers" rule
// (tests/obs_test.cc pins the twin-equality half).
void RunConcurrentIngestStressHarness(size_t mask_cache_bytes,
                                      bool metrics_enabled = true) {
  constexpr size_t kSeedRows = 300;
  constexpr int kBatches = 12;
  constexpr size_t kBatchRows = 41;  // deliberately word-boundary-hostile
  constexpr int kSessions = 3;
  constexpr int kQueriesPerSession = 16;
  constexpr double kEps = 0.05;
  constexpr uint64_t kRootSeed = 0x5EED;

  const auto make_batch = [](int g) {
    CensusTableOptions opts;
    opts.num_rows = kBatchRows;
    opts.seed = 0xB000 + static_cast<uint64_t>(g);
    return MakeCensusTable(opts);
  };
  const Domain1D age_domain = *Domain1D::Numeric(0, 100, 16);
  // Wide enough that DAWA's kAuto picks the interval-cost engine, whose
  // build runs sharded on the service pool — so the concurrent batches below
  // exercise the parallel mechanism stage, and the serial replay (null pool)
  // cross-checks it bit-for-bit.
  const Domain1D fine_domain = *Domain1D::Numeric(0, 100, 1024);
  const auto make_query = [&](int s, int q) -> ServiceRequest {
    if (q % 4 == 3) {
      // Histogram releases rotate through the mechanism stage's three
      // concurrency-bearing paths: masked one-sided Laplace (scan-side
      // sharding), DAWA (sharded engine build), and the hierarchical
      // release (level-synchronous consistency passes).
      if (q == 7) {
        return HistogramRequest{
            HistogramQuery{"age", fine_domain, std::nullopt}, kEps,
            EngineMechanism::kDawa};
      }
      if (q == 11) {
        return HistogramRequest{
            HistogramQuery{"age", age_domain, std::nullopt}, kEps,
            EngineMechanism::kHierarchical};
      }
      std::optional<Predicate> where;
      if (q % 8 == 7) where = Predicate::Eq("opt_in", Value(1));
      return HistogramRequest{HistogramQuery{"age", age_domain, where}, kEps,
                              EngineMechanism::kOsdpLaplaceL1};
    }
    return CountRequest{
        Predicate::Le("age", Value(10 + (7 * s + 13 * q) % 80)), kEps};
  };

  ThreadPool pool(2);
  QueryService::Options opts;
  opts.pool = &pool;
  opts.per_session_epsilon = 10.0;
  opts.seed = kRootSeed;
  opts.mask_cache_bytes = mask_cache_bytes;
  opts.metrics_enabled = metrics_enabled;
  auto service = *QueryService::Create(TestEngine(100.0, kSeedRows), opts);

  // Open every session up front, serially, so ids are deterministic no
  // matter how the reader threads interleave.
  std::vector<QueryService::SessionId> sessions;
  for (int s = 0; s < kSessions; ++s) {
    sessions.push_back(service->OpenSession("analyst-" + std::to_string(s)));
  }

  struct Recorded {
    uint64_t generation = 0;
    bool is_histogram = false;
    double count = 0.0;
    std::vector<double> bins;
  };
  std::vector<std::vector<Recorded>> recorded(kSessions);

  std::thread writer([&] {
    for (int g = 1; g <= kBatches; ++g) {
      auto generation = service->Ingest(make_batch(g));
      ASSERT_TRUE(generation.ok()) << generation.status().ToString();
      EXPECT_EQ(*generation, static_cast<uint64_t>(g));
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });
  std::vector<std::thread> readers;
  readers.reserve(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    readers.emplace_back([&, s] {
      for (int q = 0; q < kQueriesPerSession; ++q) {
        std::vector<ServiceRequest> batch;
        batch.emplace_back(make_query(s, q));
        auto result = std::move(service->AnswerBatch(sessions[s], batch)[0]);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        Recorded rec;
        rec.generation = result->generation;
        if (result->histogram.has_value()) {
          rec.is_histogram = true;
          rec.bins = result->histogram->counts();
        } else {
          rec.count = result->count;
        }
        recorded[s].push_back(std::move(rec));
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();

  // Serial replay. Rebuild every generation's table from the same batches,
  // reclassify from scratch, and recompute every recorded answer through
  // the serial scan paths with the (root, session, seq, generation) seed.
  const Policy policy = TestPolicy();
  std::vector<Table> generations;
  {
    CensusTableOptions seed_opts;
    seed_opts.num_rows = kSeedRows;
    seed_opts.seed = 0x9A;  // TestEngine's table
    generations.push_back(MakeCensusTable(seed_opts));
    for (int g = 1; g <= kBatches; ++g) {
      Table next = generations.back();
      ASSERT_TRUE(next.AppendRows(make_batch(g)).ok());
      generations.push_back(std::move(next));
    }
  }
  // Any engine works for RunMechanism: it is pure dispatch over the
  // precomputed histograms and the per-query Rng.
  const OsdpEngine replay_engine = TestEngine(1.0, 10);

  for (int s = 0; s < kSessions; ++s) {
    ASSERT_EQ(recorded[s].size(), static_cast<size_t>(kQueriesPerSession));
    uint64_t last_generation = 0;
    for (int q = 0; q < kQueriesPerSession; ++q) {
      const Recorded& rec = recorded[s][q];
      ASSERT_LE(rec.generation, static_cast<uint64_t>(kBatches));
      // A session's sequential submissions can only move forward in time.
      EXPECT_GE(rec.generation, last_generation);
      last_generation = rec.generation;

      const Table& table = generations[rec.generation];
      const RowMask ns = policy.NonSensitiveRowMask(table);
      Rng rng(QueryService::QuerySeed(kRootSeed, sessions[s],
                                      static_cast<uint64_t>(q),
                                      rec.generation));
      const ServiceRequest request = make_query(s, q);
      if (rec.is_histogram) {
        const auto& hist = std::get<HistogramRequest>(request);
        const Histogram xns =
            *ComputeHistogramMasked(table, hist.query, ns);
        // The full histogram feeds the DP mechanisms (kDawa, kHierarchical);
        // serial recomputation matches the service's sharded accumulation
        // exactly because bin counts are integers. The replay engine has no
        // pool, so this also pins pooled mechanism runs to their serial
        // references end to end.
        const Histogram x = *ComputeHistogram(table, hist.query);
        const Histogram expected = *replay_engine.RunMechanism(
            x, xns, kEps, hist.mechanism, rng);
        EXPECT_EQ(rec.bins, expected.counts())
            << "histogram diverged at session " << s << " seq " << q
            << " generation " << rec.generation;
      } else {
        const auto& count = std::get<CountRequest>(request);
        RowMask matching =
            CompiledPredicate::Compile(count.where, table.schema())
                ->EvalMask(table);
        matching.AndWith(ns);
        const double expected = static_cast<double>(matching.Count()) +
                                SampleOneSidedLaplace(rng, 1.0 / kEps);
        EXPECT_EQ(rec.count, expected)
            << "count diverged at session " << s << " seq " << q
            << " generation " << rec.generation;
      }
    }
  }

  if (mask_cache_bytes > 0) {
    // Quiescent tail: with the writer done, a repeated query against the
    // now-stable current generation must be a deterministic cache hit — and
    // both the miss and the hit answer must be bit-identical to their own
    // serial replays (the hit's replay recomputes the mask from scratch, so
    // a wrong cached mask cannot hide behind the flag).
    constexpr double kTailEps = 4.0;
    const auto tail = service->OpenSession("tail");
    const Predicate tail_pred = Predicate::Le("age", Value(55));
    const auto miss = *service->AnswerCount(tail, tail_pred, kTailEps);
    const auto hit = *service->AnswerCount(tail, tail_pred, kTailEps);
    EXPECT_FALSE(miss.cache_hit);
    EXPECT_TRUE(hit.cache_hit) << "repeat against a stable generation missed";
    EXPECT_EQ(miss.generation, static_cast<uint64_t>(kBatches));
    EXPECT_EQ(hit.generation, miss.generation);

    const Table& final_table = generations[kBatches];
    RowMask matching =
        CompiledPredicate::Compile(tail_pred, final_table.schema())
            ->EvalMask(final_table);
    matching.AndWith(policy.NonSensitiveRowMask(final_table));
    const double true_count = static_cast<double>(matching.Count());
    const double answers[] = {miss.count, hit.count};
    for (uint64_t seq = 0; seq < 2; ++seq) {
      Rng rng(QueryService::QuerySeed(kRootSeed, tail, seq,
                                      static_cast<uint64_t>(kBatches)));
      EXPECT_EQ(answers[seq],
                true_count + SampleOneSidedLaplace(rng, 1.0 / kTailEps))
          << "tail answer " << seq << " diverged from its serial replay";
    }
    const MaskCache::Stats stats = service->cache_stats();
    EXPECT_GT(stats.hits, 0u);
    EXPECT_GT(stats.misses, 0u);
  } else {
    const MaskCache::Stats stats = service->cache_stats();
    EXPECT_EQ(stats.hits + stats.misses, 0u) << "disabled cache was touched";
  }
}

TEST(QueryServiceStreamingTest, ConcurrentIngestMatchesSerialReplay) {
  RunConcurrentIngestStressHarness(/*mask_cache_bytes=*/0);
}

TEST(QueryServiceStreamingTest,
     ConcurrentIngestMatchesSerialReplayWithMaskCache) {
  RunConcurrentIngestStressHarness(/*mask_cache_bytes=*/64ull << 20);
}

TEST(QueryServiceStreamingTest,
     ConcurrentIngestMatchesSerialReplayWithMetricsDisabled) {
  RunConcurrentIngestStressHarness(/*mask_cache_bytes=*/0,
                                   /*metrics_enabled=*/false);
}

TEST(QueryServiceStreamingTest,
     ConcurrentIngestMatchesSerialReplayWithMaskCacheAndMetricsDisabled) {
  RunConcurrentIngestStressHarness(/*mask_cache_bytes=*/64ull << 20,
                                   /*metrics_enabled=*/false);
}

TEST(QueryServiceStreamingTest, EmptyIngestIsANoOpThatPreservesCachedMasks) {
  // An empty batch of the right schema must not publish a new generation:
  // the dataset is bit-identical, and a generation bump would orphan every
  // cached (predicate, generation) mask for nothing.
  auto service = *QueryService::Create(TestEngine(10.0), {});
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
  auto service = *QueryService::Create(TestEngine(10.0), opts);
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
  // Many threads against max_concurrent_batches = 1: some batches shed, the
  // admitted ones deliver, and afterwards the books close exactly — spent ==
  // Σ delivered ε, admitted + rejected == submitted, peak respects the cap.
  ThreadPool pool(2);
  QueryService::Options opts;
  opts.pool = &pool;
  opts.per_session_epsilon = 10.0;
  opts.max_concurrent_batches = 1;
  auto service = *QueryService::Create(TestEngine(100.0, 2000), opts);
  const double total = service->remaining_budget();

  constexpr int kThreads = 6;
  constexpr int kBatchesPerThread = 5;
  constexpr double kEps = 0.01;
  std::atomic<uint64_t> delivered{0};
  std::atomic<uint64_t> shed{0};
  std::vector<std::thread> analysts;
  for (int t = 0; t < kThreads; ++t) {
    analysts.emplace_back([&, t] {
      const auto session =
          service->OpenSession("analyst-" + std::to_string(t));
      for (int b = 0; b < kBatchesPerThread; ++b) {
        std::vector<ServiceRequest> batch;
        batch.emplace_back(CountRequest{
            Predicate::Le("age", Value(20 + (3 * t + b) % 60)), kEps});
        const auto results = service->AnswerBatch(session, batch);
        for (const auto& r : results) {
          if (r.ok()) {
            delivered.fetch_add(1);
          } else {
            ASSERT_EQ(r.status().code(), StatusCode::kResourceExhausted)
                << r.status().ToString();
            shed.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : analysts) t.join();

  EXPECT_NEAR(total - service->remaining_budget(), delivered.load() * kEps,
              1e-9);
  EXPECT_EQ(service->ledger().size(), delivered.load());
  const auto stats = service->admission_stats();
  EXPECT_EQ(stats.admitted, delivered.load());
  EXPECT_EQ(stats.rejected, shed.load());
  EXPECT_EQ(stats.admitted + stats.rejected,
            static_cast<uint64_t>(kThreads * kBatchesPerThread));
  EXPECT_LE(stats.peak_inflight, 1u);
}

TEST(QueryServiceDeadlineTest, PastDeadlineRefusesWithFullRefund) {
  auto service = *QueryService::Create(TestEngine(10.0), {});
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
  auto service = *QueryService::Create(TestEngine(10.0), {});
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

TEST(QueryServiceCancelTest, MidFlightCancelKeepsTheBooksExact) {
  // Fire the token from another thread while a large batch is scanning. The
  // race decides *which* queries deliver, never the invariants: every slot
  // is ok or Cancelled, spent == Σ delivered ε, one ledger entry per
  // delivery — and cancellation never alters a delivered answer (checked
  // against serial replay by seq).
  ThreadPool pool(2);
  QueryService::Options opts;
  opts.pool = &pool;
  opts.per_session_epsilon = 50.0;
  auto service = *QueryService::Create(TestEngine(100.0, 30000), opts);
  const double total = service->remaining_budget();
  const auto session = service->OpenSession("alice");

  constexpr double kEps = 0.05;
  std::vector<ServiceRequest> batch;
  for (int q = 0; q < 12; ++q) {
    batch.emplace_back(
        CountRequest{Predicate::Le("age", Value(15 + 6 * q)), kEps});
  }
  CancelToken token;
  QueryService::BatchControl control;
  control.cancel = token;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::microseconds(400));
    token.Cancel();
  });
  const auto results = service->AnswerBatch(session, batch, control);
  canceller.join();

  size_t delivered = 0;
  const SnapshotPtr snap = service->current_snapshot();
  for (size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kCancelled)
          << r.status().ToString();
      continue;
    }
    ++delivered;
    const auto& request = std::get<CountRequest>(batch[i]);
    RowMask matching =
        CompiledPredicate::Compile(request.where, snap->table.schema())
            ->EvalMask(snap->table);
    matching.AndWith(snap->non_sensitive);
    Rng rng(QueryService::QuerySeed(opts.seed, session, r->seq,
                                    r->generation));
    EXPECT_EQ(r->count, static_cast<double>(matching.Count()) +
                            SampleOneSidedLaplace(rng, 1.0 / kEps))
        << "cancellation altered a delivered answer (slot " << i << ")";
  }
  EXPECT_NEAR(total - service->remaining_budget(), delivered * kEps, 1e-9);
  EXPECT_EQ(service->ledger().size(), delivered);
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
  auto service = *QueryService::Create(TestEngine(100.0, 30000), opts);
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
  return *QueryService::Create(TestEngine(1e7, rows), opts);
}

// Replays one delivered answer of `request` against `snap` serially.
void ExpectReplays(const ServiceRequest& request, const ServiceAnswer& answer,
                   const Snapshot& snap, QueryService::SessionId session) {
  ASSERT_EQ(answer.generation, snap.generation);
  const Table& table = snap.table;
  const RowMask ns = TestPolicy().NonSensitiveRowMask(table);
  Rng rng(QueryService::QuerySeed(kMemoRootSeed, session, answer.seq,
                                  snap.generation));
  if (const auto* count = std::get_if<CountRequest>(&request)) {
    RowMask matching = CompiledPredicate::Compile(count->where, table.schema())
                           ->EvalMask(table);
    matching.AndWith(ns);
    EXPECT_EQ(answer.count,
              static_cast<double>(matching.Count()) +
                  SampleOneSidedLaplace(rng, 1.0 / count->epsilon))
        << "count diverged at seq " << answer.seq;
    return;
  }
  const auto& hist = std::get<HistogramRequest>(request);
  const Histogram x = *ComputeHistogram(table, hist.query);
  const Histogram xns = *ComputeHistogramMasked(table, hist.query, ns);
  const Histogram expected = *RunMechanism(x, xns, hist.epsilon,
                                           hist.mechanism, nullptr, rng);
  ASSERT_TRUE(answer.histogram.has_value());
  EXPECT_EQ(answer.histogram->counts(), expected.counts())
      << EngineMechanismToString(hist.mechanism) << " diverged at seq "
      << answer.seq;
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

  CensusTableOptions bopts;
  bopts.num_rows = 97;
  bopts.seed = 0xB7;
  ASSERT_EQ(*service->Ingest(MakeCensusTable(bopts)), 1u);
  AnswerAndReplay(service.get(), session, batch);
  AnswerAndReplay(service.get(), session, batch);
  const MaskCache::Stats after = service->cache_stats();
  EXPECT_EQ(after.aggregate_misses, 6u)
      << "the new generation must recompute every aggregate once";
  EXPECT_EQ(after.aggregate_hits - before.aggregate_hits, 3u);
}

TEST(QueryServiceMemoTest, FaultInsideTheCountStoresNothing) {
  // Serial pool, one shard: the thread_pool/chunk fault point is hit once by
  // the batch, once by the WHERE scan, then once by the count's AND +
  // popcount, where the third hit fires. The query fails and refunds; the
  // mask stays cached, and the next count recomputes the aggregate.
  ThreadPool pool(0);
  QueryService::Options opts;
  opts.pool = &pool;
  opts.num_shards = 1;
  opts.per_session_epsilon = 1e6;
  opts.seed = kMemoRootSeed;
  auto service = *QueryService::Create(TestEngine(1e7, 3000), opts);
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
  // Sweep the deadline across a count's execution — at entry, inside the
  // scan, inside the AND + popcount, at the final check — re-arming the same
  // WHERE clause each time. Whatever an aborted attempt left behind, the
  // next query of the same clause must still match its replay.
  ThreadPool pool(2);
  auto service = MemoService(&pool, 30000);
  const auto session = service->OpenSession("alice");
  const Predicate where = Predicate::And(Predicate::Le("age", Value(61)),
                                         Predicate::Ge("zip", Value(1234)));
  size_t tripped = 0;
  for (int budget_us = 0; budget_us <= 400; budget_us += 10) {
    CountRequest request{where, 0.5};
    request.deadline = std::chrono::steady_clock::now() +
                       std::chrono::microseconds(budget_us);
    const std::vector<ServiceRequest> batch{request};
    const SnapshotPtr snap = service->current_snapshot();
    const auto result = std::move(service->AnswerBatch(session, batch)[0]);
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
      ++tripped;
      AnswerAndReplay(service.get(), session, {CountRequest{where, 0.5}});
      continue;
    }
    ExpectReplays(request, *result, *snap, session);
  }
  EXPECT_GT(tripped, 0u);
  // One fill, plus at most one more per attempt aborted inside it.
  EXPECT_LE(service->cache_stats().aggregate_misses, 1u + tripped)
      << "a delivered count recomputed a memoized aggregate";
}

TEST(QueryServiceMemoTest, MidFlightCancelStoresNothingWrong) {
  // A token fired while a batch of one repeated WHERE clause executes. The
  // race decides which slots deliver; every delivered answer, and every
  // answer of the same clause afterwards, matches its replay.
  ThreadPool pool(2);
  auto service = MemoService(&pool, 30000);
  const auto session = service->OpenSession("alice");
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
  const SnapshotPtr snap = service->current_snapshot();
  CancelToken token;
  QueryService::BatchControl control;
  control.cancel = token;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::microseconds(150));
    token.Cancel();
  });
  const auto results = service->AnswerBatch(session, batch, control);
  canceller.join();
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) {
      EXPECT_EQ(results[i].status().code(), StatusCode::kCancelled);
      continue;
    }
    ExpectReplays(batch[i], *results[i], *snap, session);
  }
  AnswerAndReplay(service.get(), session, batch);
  AnswerAndReplay(service.get(), session, batch);
}

}  // namespace
}  // namespace osdp
