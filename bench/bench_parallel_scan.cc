// Scaling benchmark for the parallel execution runtime: rows/sec for the
// sharded scan paths and the concurrent QueryService versus the serial
// baselines, across thread counts.
//
//   mask          CompiledPredicate::EvalMask vs ParallelEvalMask
//   count         mask eval + AND with the policy mask + popcount, serial
//                 vs ParallelEvalMask + the fused ParallelAndCount the
//                 service runs
//   masks<k>      k fresh-scan-shaped clauses (age range AND zip cut, k in
//                 1, 2, 4, 8): k ParallelEvalMask calls ("separate") vs one
//                 ParallelEvalMasksInto pass ("shared"), the scan a batch of
//                 new WHERE clauses runs; rows/s counts clause-rows
//   hist          ComputeHistogramMasked vs the service's composition:
//                 ParallelEvalMask of the WHERE clause, then the two-mask
//                 ParallelAccumulateHistogram over WHERE ∧ x_ns
//   service       a 16-query batch (12 counts + 4 histograms, two of them
//                 unfiltered) through QueryService across 4 sessions, pool
//                 of N threads vs the inline pool. Every session asks the
//                 same batch, so after the first timed pass every answer
//                 but its noise is a memo hit on the mask cache, the
//                 unfiltered histograms' (the TRUE clause's entry)
//                 included: the row times admission, lookups, noise and
//                 accounting, not scans
//
// Every parallel measurement is cross-checked bit-identical against its
// serial counterpart; any divergence exits non-zero (the ctest smoke run
// relies on this).
//
// Knobs: OSDP_BENCH_MAX_ROWS caps the row grid (default 10M; the CI smoke
// run uses 100000), OSDP_BENCH_THREADS is the comma-separated thread grid
// (default "1,2,4,8"), OSDP_BENCH_JSON the output path (default
// BENCH_parallel_scan.json). The JSON records hardware_concurrency so a
// flat curve on a starved machine reads as what it is.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/benchdata/table_gen.h"
#include "src/core/engine.h"
#include "src/data/compiled_predicate.h"
#include "src/data/predicate.h"
#include "src/data/row_mask.h"
#include "src/eval/table_printer.h"
#include "src/hist/histogram_query.h"
#include "src/policy/policy.h"
#include "src/runtime/parallel_scan.h"
#include "src/runtime/query_service.h"
#include "src/runtime/thread_pool.h"
#include "tests/serial_replay.h"

using namespace osdp;
using bench::TimeBest;

namespace {

int RepsFor(size_t rows) {
  if (rows >= 10000000) return 2;
  if (rows >= 1000000) return 3;
  return 7;
}

struct Measurement {
  std::string op;
  size_t rows;
  size_t threads;  // 0 = serial baseline
  double sec_per_iter;
  double rows_per_sec;
};

// The clause shape of the service-load bench's fresh_scans workload: an age
// range AND a zip cut, with constants that differ per clause.
Predicate FreshClause(int i) {
  const int age_lo = 18 + (i * 7) % 62;
  const int age_span = 1 + (i * 3) % 20;
  return Predicate::And(
      Predicate::And(Predicate::Ge("age", Value(age_lo)),
                     Predicate::Le("age", Value(age_lo + age_span))),
      Predicate::Ge("zip", Value((i * 613) % 5000)));
}

constexpr size_t kMaxFreshClauses = 8;

Predicate BenchPredicate() {
  // The 3-leaf "mixed3" shape of bench_predicate_pipeline, so the serial
  // baseline here lines up with BENCH_predicate_pipeline.json.
  return Predicate::And(Predicate::Or(Predicate::Eq("race", Value("C3")),
                                      Predicate::Eq("opt_in", Value(0))),
                        Predicate::Le("age", Value(40)));
}

int Fail(const char* what, size_t rows, size_t threads) {
  std::fprintf(stderr,
               "BIT-IDENTITY VIOLATION: %s (rows=%zu threads=%zu)\n", what,
               rows, threads);
  return 1;
}

std::vector<ServiceRequest> ServiceBatch(const Domain1D& age_domain) {
  std::vector<ServiceRequest> batch;
  for (int q = 0; q < 12; ++q) {
    batch.emplace_back(
        CountRequest{Predicate::Le("age", Value(20 + q * 5)), 1e-4});
  }
  for (int q = 0; q < 4; ++q) {
    batch.emplace_back(HistogramRequest{
        HistogramQuery{"age", age_domain,
                       q % 2 ? std::optional<Predicate>(BenchPredicate())
                             : std::nullopt},
        1e-4, EngineMechanism::kOsdpLaplaceL1});
  }
  return batch;
}

OsdpEngine ServiceEngine(const Table& table) {
  OsdpEngine::Options eopts;
  eopts.total_epsilon = 1e9;  // throughput bench, not a budget bench
  return *OsdpEngine::Create(table, CensusPolicy(), eopts);
}

}  // namespace

int main() {
  const size_t max_rows = bench::EnvSize("OSDP_BENCH_MAX_ROWS", 10000000);
  const std::vector<size_t> thread_grid = bench::ThreadGrid({1, 2, 4, 8});

  std::vector<size_t> row_grid;
  for (size_t rows : {size_t{1000000}, size_t{10000000}}) {
    if (rows <= max_rows) row_grid.push_back(rows);
  }
  if (row_grid.empty()) row_grid.push_back(max_rows);

  const Policy policy = CensusPolicy();
  const Domain1D age_domain = *Domain1D::Numeric(0, 100, 64);
  std::vector<Measurement> results;
  volatile size_t sink = 0;

  std::printf("=== parallel scan runtime: rows/sec by thread count ===\n");
  std::printf("(hardware_concurrency=%u; row grid capped at %zu)\n\n",
              std::thread::hardware_concurrency(), max_rows);

  for (size_t rows : row_grid) {
    CensusTableOptions topts;
    topts.num_rows = rows;
    topts.seed = 0x05D9 + rows;
    const int reps = RepsFor(rows);

    const Table table = MakeCensusTable(topts);
    const CompiledPredicate compiled =
        *CompiledPredicate::Compile(BenchPredicate(), table.schema());
    const RowMask ns_mask = policy.NonSensitiveRowMask(table);
    const HistogramQuery query{"age", age_domain,
                               std::optional<Predicate>(BenchPredicate())};
    const PreparedHistogramQuery prepared =
        *PreparedHistogramQuery::Prepare(table, query);
    std::vector<CompiledPredicate> fresh;
    for (size_t i = 0; i < kMaxFreshClauses; ++i) {
      fresh.push_back(*CompiledPredicate::Compile(
          FreshClause(static_cast<int>(i)), table.schema()));
    }

    // --- serial baselines ----------------------------------------------
    const RowMask serial_mask = compiled.EvalMask(table);
    RowMask serial_count_mask = serial_mask;
    serial_count_mask.AndWith(ns_mask);
    const size_t serial_count = serial_count_mask.Count();
    const Histogram serial_hist =
        *ComputeHistogramMasked(table, query, ns_mask);

    results.push_back({"mask", rows, 0,
                       TimeBest(reps, [&] { sink += compiled.EvalMask(table).Count(); }),
                       0});
    results.push_back({"count", rows, 0, TimeBest(reps, [&] {
                         RowMask m = compiled.EvalMask(table);
                         m.AndWith(ns_mask);
                         sink += m.Count();
                       }),
                       0});
    results.push_back({"hist", rows, 0, TimeBest(reps, [&] {
                         sink += static_cast<size_t>(
                             ComputeHistogramMasked(table, query, ns_mask)
                                 ->Total());
                       }),
                       0});
    {
      ThreadPool inline_pool(0);
      QueryService::Options sopts;
      sopts.per_session_epsilon = 1e8;
      sopts.pool = &inline_pool;
      sopts.num_shards = 1;
      auto serial_service = *QueryService::Create(ServiceEngine(table), sopts);
      std::vector<QueryService::SessionId> serial_sessions;
      for (int s = 0; s < 4; ++s) {
        serial_sessions.push_back(
            serial_service->OpenSession("s" + std::to_string(s)));
      }
      const auto batch = ServiceBatch(age_domain);
      results.push_back({"service", rows, 0, TimeBest(reps, [&] {
                           for (const auto sess : serial_sessions) {
                             for (const auto& r :
                                  serial_service->AnswerBatch(sess, batch)) {
                               sink += r.ok() ? 1 : 0;
                             }
                           }
                         }),
                         0});
    }

    // --- parallel, per thread count -------------------------------------
    TextTable shared_text({"clauses", "threads", "separate rows/s",
                           "shared rows/s", "speedup"});
    for (size_t threads : thread_grid) {
      ThreadPool pool(threads);
      const ParallelScanOptions popts{&pool, threads};

      const RowMask par_mask = ParallelEvalMask(compiled, table, popts);
      if (!(par_mask == serial_mask)) return Fail("mask", rows, threads);
      if (ParallelAndCount(par_mask, ns_mask, 0, rows, popts) !=
          serial_count) {
        return Fail("count", rows, threads);
      }
      // The service's histogram composition: the WHERE clause's mask, then
      // the two-mask accumulation over WHERE ∧ x_ns.
      const auto par_hist = [&] {
        const RowMask where = ParallelEvalMask(*prepared.where(), table, popts);
        return ParallelAccumulateHistogram(prepared, where, ns_mask, 0, rows,
                                           popts);
      };
      if (par_hist().counts() != serial_hist.counts()) {
        return Fail("hist", rows, threads);
      }

      results.push_back({"mask", rows, threads, TimeBest(reps, [&] {
                           sink +=
                               ParallelEvalMask(compiled, table, popts).Count();
                         }),
                         0});
      results.push_back({"count", rows, threads, TimeBest(reps, [&] {
                           const RowMask where =
                               ParallelEvalMask(compiled, table, popts);
                           sink += ParallelAndCount(where, ns_mask, 0, rows,
                                                    popts);
                         }),
                         0});
      results.push_back({"hist", rows, threads, TimeBest(reps, [&] {
                           sink += static_cast<size_t>(par_hist().Total());
                         }),
                         0});

      // k separate scans vs one shared pass, cross-checked word for word.
      for (size_t k : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
        std::vector<const CompiledPredicate*> preds;
        for (size_t i = 0; i < k; ++i) preds.push_back(&fresh[i]);
        const auto shared_pass = [&] {
          std::vector<RowMask> masks(k, RowMask(rows));
          std::vector<RowMask*> outs;
          for (RowMask& m : masks) outs.push_back(&m);
          ParallelEvalMasksInto(preds, table, 0, outs, popts);
          return masks;
        };
        const std::vector<RowMask> shared = shared_pass();
        for (size_t i = 0; i < k; ++i) {
          if (!(shared[i] == ParallelEvalMask(*preds[i], table, popts))) {
            return Fail("masks", rows, threads);
          }
        }
        const std::string op = "masks" + std::to_string(k);
        const double clause_rows = static_cast<double>(rows * k);
        const double separate_sec = TimeBest(reps, [&] {
          for (const CompiledPredicate* p : preds) {
            sink += ParallelEvalMask(*p, table, popts).block(0)[0];
          }
        });
        const double shared_sec =
            TimeBest(reps, [&] { sink += shared_pass()[0].block(0)[0]; });
        results.push_back({op + "_separate", rows, threads, separate_sec,
                           clause_rows / separate_sec});
        results.push_back({op + "_shared", rows, threads, shared_sec,
                           clause_rows / shared_sec});
        shared_text.AddRow({std::to_string(k), std::to_string(threads),
                            TextTable::FmtAuto(clause_rows / separate_sec),
                            TextTable::FmtAuto(clause_rows / shared_sec),
                            TextTable::Fmt(separate_sec / shared_sec, 2) +
                                "x"});
      }

      QueryService::Options sopts;
      sopts.per_session_epsilon = 1e8;
      sopts.pool = &pool;
      sopts.num_shards = threads;
      auto service = *QueryService::Create(ServiceEngine(table), sopts);
      std::vector<QueryService::SessionId> sessions;
      for (int s = 0; s < 4; ++s) {
        sessions.push_back(service->OpenSession("s" + std::to_string(s)));
      }
      const auto batch = ServiceBatch(age_domain);

      // Cross-check on fresh instances (fresh = same per-session seq
      // stream): parallel service answers must be bit-identical to the
      // inline-pool service's.
      {
        ThreadPool inline_pool(0);
        QueryService::Options ref_opts = sopts;
        ref_opts.pool = &inline_pool;
        ref_opts.num_shards = 1;
        auto ref_service =
            *QueryService::Create(ServiceEngine(table), ref_opts);
        auto par_service = *QueryService::Create(ServiceEngine(table), sopts);
        const auto ref_session = ref_service->OpenSession("check");
        const auto par_session = par_service->OpenSession("check");
        const auto ref_answers = ref_service->AnswerBatch(ref_session, batch);
        const auto par_answers = par_service->AnswerBatch(par_session, batch);
        for (size_t q = 0; q < batch.size(); ++q) {
          if (ref_answers[q].ok() != par_answers[q].ok()) {
            return Fail("service status", rows, threads);
          }
          if (!ref_answers[q].ok()) continue;
          if (ref_answers[q]->count != par_answers[q]->count) {
            return Fail("service count", rows, threads);
          }
          const auto& rh = ref_answers[q]->histogram;
          const auto& ph = par_answers[q]->histogram;
          if (rh.has_value() != ph.has_value() ||
              (rh.has_value() && rh->counts() != ph->counts())) {
            return Fail("service histogram", rows, threads);
          }
        }
      }
      results.push_back({"service", rows, threads, TimeBest(reps, [&] {
                           for (const auto sess : sessions) {
                             for (const auto& r :
                                  service->AnswerBatch(sess, batch)) {
                               sink += r.ok() ? 1 : 0;
                             }
                           }
                         }),
                         0});
    }

    // rows/sec + table.
    for (Measurement& m : results) {
      if (m.rows == rows && m.rows_per_sec == 0) {
        m.rows_per_sec = static_cast<double>(rows) / m.sec_per_iter;
      }
    }
    TextTable text({"op", "serial rows/s", "threads", "parallel rows/s",
                    "speedup"});
    for (const char* op : {"mask", "count", "hist", "service"}) {
      double serial_rps = 0;
      for (const Measurement& m : results) {
        if (m.rows == rows && m.op == op && m.threads == 0) {
          serial_rps = m.rows_per_sec;
        }
      }
      for (const Measurement& m : results) {
        if (m.rows != rows || m.op != op || m.threads == 0) continue;
        text.AddRow({op, TextTable::FmtAuto(serial_rps),
                     std::to_string(m.threads),
                     TextTable::FmtAuto(m.rows_per_sec),
                     TextTable::Fmt(m.rows_per_sec / serial_rps, 2) + "x"});
      }
    }
    std::printf("--- %zu rows ---\n%s\n", rows, text.ToString().c_str());
    std::printf("shared pass over k fresh clauses (clause-rows/s):\n%s\n",
                shared_text.ToString().c_str());
  }

  bench::BenchJson json("parallel_scan", "BENCH_parallel_scan.json");
  if (!json.ok()) return 1;
  json.Records("results", results, [](FILE* f, const Measurement& m) {
    std::fprintf(f,
                 "{\"op\": \"%s\", \"rows\": %zu, \"threads\": %zu, "
                 "\"sec_per_iter\": %.6g, \"rows_per_sec\": %.6g}",
                 m.op.c_str(), m.rows, m.threads, m.sec_per_iter,
                 m.rows_per_sec);
  });
  if (!json.Close()) return 1;
  std::printf("wrote %s (%zu measurements); sink=%zu\n", json.path().c_str(),
              results.size(), static_cast<size_t>(sink));
  return 0;
}
