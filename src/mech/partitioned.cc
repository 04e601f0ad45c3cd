#include "src/mech/partitioned.h"

#include "src/accounting/concurrent.h"
#include "src/data/compiled_predicate.h"
#include "src/data/row_mask.h"
#include "src/mech/osdp_laplace.h"

namespace osdp {

Result<PartitionedRelease> PartitionedHistogramRelease(
    const Table& table, const Policy& policy, const HistogramQuery& query,
    const PartitionedReleaseOptions& opts, Rng& rng) {
  if (opts.num_partitions == 0) {
    return Status::InvalidArgument("num_partitions must be positive");
  }
  if (opts.epsilon_per_partition <= 0.0) {
    return Status::InvalidArgument("epsilon_per_partition must be positive");
  }
  OSDP_ASSIGN_OR_RETURN(const ChunkedColumn<int64_t>* keys,
                        table.Int64ColumnByName(opts.partition_column));
  for (size_t r = 0; r < table.num_rows(); ++r) {
    const int64_t k = (*keys)[r];
    if (k < 0 || static_cast<size_t>(k) >= opts.num_partitions) {
      return Status::OutOfRange("partition key outside [0, num_partitions)");
    }
  }

  // Compile the (possibly untrusted) policy once: a type error is this
  // call's Status, and the compiled P classifies every row in one scan.
  OSDP_ASSIGN_OR_RETURN(
      CompiledPredicate non_sensitive,
      CompiledPredicate::Compile(Predicate::Not(policy.sensitive_predicate()),
                                 table.schema()));
  const RowMask ns_mask = non_sensitive.EvalMask(table);
  PartitionedRelease out;
  out.partitions.reserve(opts.num_partitions);
  SharedLedger ledger;
  for (size_t part = 0; part < opts.num_partitions; ++part) {
    // Mask: non-sensitive rows of this partition only, built from the
    // (already range-checked) key column. One num_rows-bit mask lives at a
    // time, so memory stays O(num_rows) for any partition count.
    RowMask mask(table.num_rows());
    for (size_t row = 0; row < table.num_rows(); ++row) {
      if (static_cast<size_t>((*keys)[row]) == part) mask.Set(row);
    }
    mask.AndWith(ns_mask);
    OSDP_ASSIGN_OR_RETURN(Histogram xns,
                          ComputeHistogramMasked(table, query, mask));
    OSDP_ASSIGN_OR_RETURN(
        Histogram est, OsdpLaplaceL1(xns, opts.epsilon_per_partition, rng));
    out.partitions.push_back(std::move(est));
    ledger.Record(policy, opts.epsilon_per_partition,
                  "partition " + std::to_string(part));
  }

  OSDP_ASSIGN_OR_RETURN(ComposedGuarantee parallel, ledger.Parallel());
  out.eosdp.model = PrivacyModel::kEOSDP;
  out.eosdp.epsilon = parallel.epsilon;
  out.eosdp.policy_name = policy.name();
  out.eosdp.exclusion_attack_phi = parallel.epsilon;
  out.osdp_epsilon = 2.0 * parallel.epsilon;  // Theorem 10.1
  return out;
}

}  // namespace osdp
