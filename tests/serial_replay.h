// The serial replay oracle and the census fixture shared by every
// QueryService bit-identity check in tests/ and bench/.
//
// QueryService's replay contract: every delivered answer equals a serial
// recomputation from its generation's rows, with the noise redrawn from
// QuerySeed(root, session, seq, generation) — the paper's online setting
// (Section 7), each release charged and composed by Theorem 3.3.
// ReplayAnswer is that recomputation, from first principles: a fresh compile
// of the WHERE clause, a serial mask, count and histogram, the catalog's
// RunMechanism with no pool, and the one-sided count noise drawn here. It
// touches no MaskCache, no sharded scan and no service state, so a fault in
// any of those shows up as a mismatch instead of being replayed.
//
// Header-only and gtest-free: the fault-soak and ingest benches include it
// through the repo-root include path, as the tests do. Nothing under src/
// may include it.

#ifndef OSDP_TESTS_SERIAL_REPLAY_H_
#define OSDP_TESTS_SERIAL_REPLAY_H_

#include <cstdint>
#include <utility>
#include <variant>

#include "src/benchdata/table_gen.h"
#include "src/common/random.h"
#include "src/common/result.h"
#include "src/core/engine.h"
#include "src/data/compiled_predicate.h"
#include "src/data/predicate.h"
#include "src/data/row_mask.h"
#include "src/data/table.h"
#include "src/hist/histogram_query.h"
#include "src/mech/histogram_mechanism.h"
#include "src/mech/noise.h"
#include "src/mech/osdp_rr.h"
#include "src/policy/policy.h"
#include "src/runtime/query_service.h"

namespace osdp {

/// The census fixture's policy: a row is sensitive when it opted out or is a
/// minor.
inline Policy CensusPolicy() {
  return Policy::SensitiveWhen(
      Predicate::Or(Predicate::Eq("opt_in", Value(0)),
                    Predicate::Lt("age", Value(18))),
      "opt_out_or_minor");
}

/// `rows` census rows (MakeCensusTable) drawn from `seed`.
inline Table CensusRows(size_t rows, uint64_t seed) {
  CensusTableOptions opts;
  opts.num_rows = rows;
  opts.seed = seed;
  return MakeCensusTable(opts);
}

inline constexpr uint64_t kCensusEngineSeed = 0x9A;

/// The engine every service test starts from: CensusRows(rows,
/// kCensusEngineSeed) under CensusPolicy(), with `total_epsilon` as the
/// service-wide budget.
inline OsdpEngine CensusEngine(double total_epsilon, size_t rows = 3000) {
  OsdpEngine::Options opts;
  opts.total_epsilon = total_epsilon;
  return *OsdpEngine::Create(CensusRows(rows, kCensusEngineSeed),
                             CensusPolicy(), opts);
}

/// \brief The answer `request` must have received from a service seeded
/// with `root_seed`, as query `seq` of `session` against generation
/// `generation`, whose rows are `table` and whose releasable rows are
/// `non_sensitive`. Fills count, histogram or sample, plus seq and
/// generation. A request the service would refuse returns its error.
inline Result<ServiceAnswer> ReplayAnswer(const Table& table,
                                          const RowMask& non_sensitive,
                                          const ServiceRequest& request,
                                          uint64_t root_seed,
                                          QueryService::SessionId session,
                                          uint64_t seq, uint64_t generation) {
  Rng rng(QueryService::QuerySeed(root_seed, session, seq, generation));
  ServiceAnswer answer;
  answer.seq = seq;
  answer.generation = generation;
  if (const auto* count = std::get_if<CountRequest>(&request)) {
    OSDP_ASSIGN_OR_RETURN(
        CompiledPredicate where,
        CompiledPredicate::Compile(count->where, table.schema()));
    RowMask matching = where.EvalMask(table);
    matching.AndWith(non_sensitive);
    // One-sided Laplace, sensitivity 1 (Section 5.1).
    answer.count = static_cast<double>(matching.Count()) +
                   DrawOneSided(1, count->epsilon, rng);
  } else if (const auto* hist = std::get_if<HistogramRequest>(&request)) {
    // Both inputs in full, whatever the mechanism reads: a service that
    // hands a mechanism the wrong one diverges here.
    OSDP_ASSIGN_OR_RETURN(Histogram x, ComputeHistogram(table, hist->query));
    OSDP_ASSIGN_OR_RETURN(
        Histogram xns, ComputeHistogramMasked(table, hist->query,
                                              non_sensitive));
    OSDP_ASSIGN_OR_RETURN(Histogram released,
                          RunMechanism(x, xns, hist->epsilon, hist->mechanism,
                                       /*pool=*/nullptr, rng));
    answer.histogram = std::move(released);
  } else {
    OSDP_ASSIGN_OR_RETURN(
        TableView released,
        OsdpRRReleaseView(table, non_sensitive,
                          std::get<SampleRequest>(request).epsilon, rng));
    answer.sample = std::move(released);
  }
  return answer;
}

/// True when `delivered` and `replayed` release the same bits: the count,
/// the histogram's bins and the sample's row indices.
inline bool SameRelease(const ServiceAnswer& delivered,
                        const ServiceAnswer& replayed) {
  if (delivered.count != replayed.count ||
      delivered.histogram.has_value() != replayed.histogram.has_value() ||
      delivered.sample.has_value() != replayed.sample.has_value()) {
    return false;
  }
  if (delivered.histogram.has_value() &&
      delivered.histogram->counts() != replayed.histogram->counts()) {
    return false;
  }
  return !delivered.sample.has_value() ||
         delivered.sample->ToIndices() == replayed.sample->ToIndices();
}

}  // namespace osdp

#endif  // OSDP_TESTS_SERIAL_REPLAY_H_
