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
#include "src/policy/policy.h"

namespace osdp {

/// The per-record release probability 1 - e^{-ε} (Table 1's analytic column).
double OsdpRRReleaseProbability(double epsilon);

/// \brief Runs OsdpRR over a table: returns the indices of released rows.
///
/// The output is a *true sample* — every released row is unmodified — which
/// is what enables downstream tasks that need real records (classification,
/// extractive summaries, huge-domain histograms; Section 4).
Result<std::vector<size_t>> OsdpRRSelect(const Table& table,
                                         const Policy& policy, double epsilon,
                                         Rng& rng);

/// Runs OsdpRR and materializes the released rows as a new table.
Result<Table> OsdpRRRelease(const Table& table, const Policy& policy,
                            double epsilon, Rng& rng);

/// \brief Zero-copy OsdpRR: the released sample as a TableView over
/// `table` — same coin sequence and selected rows as OsdpRRRelease, but no
/// cell is copied. The view borrows `table` and must not outlive it.
/// OsdpRRRelease is exactly this view materialized.
Result<TableView> OsdpRRReleaseView(const Table& table, const Policy& policy,
                                    double epsilon, Rng& rng);

/// \brief OsdpRR over a classification the caller already holds:
/// `non_sensitive` (one bit per row of `table`, InvalidArgument otherwise)
/// marks the release-eligible rows. Equal to the Policy form when the mask
/// is that policy's NonSensitiveRowMask(table), without re-running the
/// policy scan — a snapshot's stored mask feeds straight in.
Result<TableView> OsdpRRReleaseView(const Table& table,
                                    const RowMask& non_sensitive,
                                    double epsilon, Rng& rng);

/// \brief Generic OsdpRR over arbitrary record types (e.g. trajectories):
/// returns indices into `records` of the released sample.
template <typename T>
std::vector<size_t> OsdpRRSelectGeneric(const std::vector<T>& records,
                                        const GenericPolicy<T>& policy,
                                        double epsilon, Rng& rng) {
  const double p = OsdpRRReleaseProbability(epsilon);
  std::vector<size_t> out;
  for (size_t i = 0; i < records.size(); ++i) {
    if (policy.IsNonSensitive(records[i]) && rng.NextBernoulli(p)) {
      out.push_back(i);
    }
  }
  return out;
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

/// The guarantee of an OsdpRR release (OSDP; φ = ε by Theorem 3.1).
PrivacyGuarantee OsdpRRGuarantee(double epsilon, const std::string& policy_name);

/// Expected L1 error of answering a histogram via OsdpRR (Theorem 5.1):
/// suppressed sensitive mass + e^{-ε} of the non-sensitive mass.
double OsdpRRExpectedL1Error(double total_records, double non_sensitive_records,
                             double epsilon);

}  // namespace osdp

#endif  // OSDP_MECH_OSDP_RR_H_
