// OsdpRR (Algorithm 1): randomized-response release of true non-sensitive
// records. Each non-sensitive record is published unperturbed with probability
// 1 - e^{-ε}; sensitive records are always suppressed. Satisfies (P, ε)-OSDP
// (Theorem 4.1).

#ifndef OSDP_MECH_OSDP_RR_H_
#define OSDP_MECH_OSDP_RR_H_

#include <vector>

#include "src/common/random.h"
#include "src/common/result.h"
#include "src/data/row_mask.h"
#include "src/data/table.h"
#include "src/data/table_view.h"
#include "src/hist/histogram.h"
#include "src/mech/guarantee.h"
#include "src/policy/generic_policy.h"

namespace osdp {

/// The per-record release probability 1 - e^{-ε} (Table 1's analytic column).
double OsdpRRReleaseProbability(double epsilon);

/// \brief The one OsdpRR coin loop: one Bernoulli(1 - e^{-ε}) draw per set
/// bit of `eligible` (the non-sensitive records), in ascending order; the
/// result has the bits of the released records set. InvalidArgument for NaN,
/// ±inf or non-positive ε, before any coin is drawn.
Result<RowMask> OsdpRRDraw(const RowMask& eligible, double epsilon, Rng& rng);

/// \brief OsdpRR over a table whose classification the caller holds:
/// `non_sensitive` (one bit per row of `table`, InvalidArgument otherwise)
/// marks the release-eligible rows — pass Policy::NonSensitiveRowMask(table)
/// or a snapshot's stored mask. The released sample is a zero-copy
/// TableView: every released row is a *true*, unmodified record, which is
/// what enables downstream tasks that need real records (classification,
/// extractive summaries, huge-domain histograms; Section 4). The view
/// borrows `table` and must not outlive it; Materialize() copies it out.
Result<TableView> OsdpRRReleaseView(const Table& table,
                                    const RowMask& non_sensitive,
                                    double epsilon, Rng& rng);

/// \brief Generic OsdpRR over arbitrary record types (e.g. trajectories):
/// returns indices into `records` of the released sample. The same coin
/// loop as OsdpRRReleaseView, over the records `policy` marks non-sensitive.
template <typename T>
Result<std::vector<size_t>> OsdpRRSelectGeneric(const std::vector<T>& records,
                                                const GenericPolicy<T>& policy,
                                                double epsilon, Rng& rng) {
  RowMask eligible(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    if (policy.IsNonSensitive(records[i])) eligible.Set(i);
  }
  OSDP_ASSIGN_OR_RETURN(RowMask released, OsdpRRDraw(eligible, epsilon, rng));
  return released.ToIndices();
}

/// \brief Histogram-space OsdpRR: given the non-sensitive histogram x_ns,
/// samples each unit of count independently with probability 1 - e^{-ε}
/// (binomial per bin). Equivalent to running OsdpRR on the records and then
/// computing the histogram query on the sample (Section 5.1).
///
/// The estimate is the raw sample count — the paper does not rescale by
/// 1/(1-e^{-ε}); Theorem 5.1's error analysis assumes the unscaled sample.
Result<Histogram> OsdpRRHistogram(const Histogram& xns, double epsilon,
                                  Rng& rng);

/// Expected L1 error of answering a histogram via OsdpRR (Theorem 5.1):
/// suppressed sensitive mass + e^{-ε} of the non-sensitive mass.
double OsdpRRExpectedL1Error(double total_records, double non_sensitive_records,
                             double epsilon);

}  // namespace osdp

#endif  // OSDP_MECH_OSDP_RR_H_
