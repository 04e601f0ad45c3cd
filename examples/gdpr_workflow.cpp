// GDPR-style end-to-end workflow (paper Example 1) through the high-level
// API: CSV in → policy written in the policy language → budgeted releases
// through a one-session QueryService → CSV out, with the composed guarantee
// printed at the end.
//
// Build & run:  ./build/examples/gdpr_workflow

#include <cstdio>
#include <vector>

#include "src/common/random.h"
#include "src/core/engine.h"
#include "src/data/csv.h"
#include "src/policy/parser.h"
#include "src/runtime/query_service.h"
#include "src/runtime/thread_pool.h"

using namespace osdp;  // example code; library code never does this

namespace {

// Synthesizes the "collected user data" a controller might hold.
std::string MakeUserCsv() {
  std::string csv = "age,country,consent\n";
  Rng rng(2018);  // the year GDPR took effect
  const char* countries[] = {"DE", "FR", "NL", "ES", "IT"};
  for (int i = 0; i < 8000; ++i) {
    const int age = 10 + static_cast<int>(rng.NextBounded(70));
    const char* country = countries[rng.NextBounded(5)];
    const int consent = rng.NextBernoulli(0.82) ? 1 : 0;
    csv += std::to_string(age);
    csv += ",";
    csv += country;
    csv += ",";
    csv += std::to_string(consent);
    csv += "\n";
  }
  return csv;
}

}  // namespace

int main() {
  // --- ingest -----------------------------------------------------------
  Table table = *ReadCsvTable(MakeUserCsv());
  std::printf("loaded %zu records with schema %s\n", table.num_rows(),
              table.schema().ToString().c_str());

  // --- policy, as a privacy officer would write it ------------------------
  // GDPR: minors under 16 need parental authorization; no consent = no use.
  Policy policy = *ParsePolicy("age < 16 OR consent = 0", "P_gdpr");
  std::printf("policy: %s\n", policy.sensitive_predicate().ToString().c_str());

  // --- budgeted service: one analyst session, run inline ------------------
  OsdpEngine::Options opts;
  opts.total_epsilon = 2.0;
  ThreadPool inline_pool(0);  // every query runs on this thread
  QueryService::Options sopts;
  sopts.pool = &inline_pool;
  sopts.per_session_epsilon = opts.total_epsilon;
  auto service = *QueryService::Create(
      *OsdpEngine::Create(std::move(table), policy, opts), sopts);
  const QueryService::SessionId session = service->OpenSession("analytics");
  std::printf("service ready: budget eps = %.2f\n\n", opts.total_epsilon);

  // 1. A true microdata sample for the analytics team.
  const std::vector<ServiceRequest> sample_request{SampleRequest{0.5}};
  const ServiceAnswer released =
      *service->AnswerBatch(session, sample_request)[0];
  const Table sample = released.sample->Materialize();
  std::printf("released %zu true records (OsdpRR, eps=0.5)\n",
              sample.num_rows());
  const std::string out_path = "/tmp/osdp_gdpr_sample.csv";
  if (WriteStringToFile(out_path, WriteCsvTable(sample)).ok()) {
    std::printf("  sample written to %s\n", out_path.c_str());
  }

  // 2. An age histogram for the marketing dashboard.
  HistogramQuery age_query{"age", *Domain1D::Numeric(10, 80, 14), std::nullopt};
  const ServiceAnswer ages = *service->AnswerHistogram(
      session, age_query, 1.0, EngineMechanism::kDawaz);
  std::printf("age histogram (DAWAz, eps=1.0): first bins = %s\n",
              ages.histogram->ToString().c_str());

  // 3. One ad-hoc count.
  const ServiceAnswer young_opted_in = *service->AnswerCount(
      session, *ParsePredicate("age >= 16 AND age < 30"), 0.5);
  std::printf("noisy count of consenting 16-29s: %.1f\n", young_opted_in.count);

  // --- the final accounting ----------------------------------------------
  ComposedGuarantee g = *service->CurrentGuarantee();
  std::printf("\nafter all releases: (%s, %.2f)-OSDP; remaining budget %.2f\n",
              g.policy.name().c_str(), g.epsilon, service->remaining_budget());

  // A fourth query must fail: the budget is spent.
  auto refused = service->AnswerCount(session, *ParsePredicate("TRUE"), 0.5);
  std::printf("one more query? %s\n", refused.status().ToString().c_str());
  return refused.status().code() == StatusCode::kBudgetExhausted ? 0 : 1;
}
