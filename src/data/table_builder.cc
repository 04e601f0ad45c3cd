#include "src/data/table_builder.h"

#include <memory>
#include <utility>

#include "src/common/fault.h"

namespace osdp {

namespace {

// The policy's P itself (true = non-sensitive), bound to `schema`. NOT is an
// exact word-wise complement in the compiled scan, so its mask equals
// Policy::NonSensitiveRowMask bit for bit.
Result<CompiledPredicate> CompileNonSensitive(const Policy& policy,
                                              const Schema& schema) {
  return CompiledPredicate::Compile(
      Predicate::Not(policy.sensitive_predicate()), schema);
}

}  // namespace

Result<TableBuilder> TableBuilder::Create(Table seed, const Policy& policy) {
  OSDP_ASSIGN_OR_RETURN(CompiledPredicate non_sensitive,
                        CompileNonSensitive(policy, seed.schema()));
  RowMask mask = non_sensitive.EvalMask(seed);
  return TableBuilder(std::move(seed), std::move(non_sensitive),
                      std::move(mask));
}

Result<TableBuilder> TableBuilder::FromSnapshot(const Snapshot& snapshot,
                                                const Policy& policy) {
  OSDP_ASSIGN_OR_RETURN(CompiledPredicate non_sensitive,
                        CompileNonSensitive(policy, snapshot.table.schema()));
  return TableBuilder(snapshot.table, std::move(non_sensitive),
                      snapshot.non_sensitive);
}

Status TableBuilder::Append(const RowBatch& batch) {
  if (!(batch.schema() == table_.schema())) {
    return Status::InvalidArgument(
        "batch schema " + batch.schema().ToString() +
        " differs from dataset schema " + table_.schema().ToString());
  }
  if (batch.num_rows() == 0) return Status::OK();

  // Fault point before any mutation: a fired fault leaves the builder
  // exactly as it was — the failure-atomic half of the ingest pipeline
  // (contrast "ingest/publish", which fires after the append).
  OSDP_FAULT_POINT("ingest/append");

  const size_t old_rows = table_.num_rows();
  OSDP_RETURN_IF_ERROR(table_.AppendRows(batch));

  // Classify only the appended rows. EvalRangeInto needs a word-aligned
  // start, so begin at the last word boundary at or before the old end; the
  // handful of old rows in that word are recomputed to the same bits (the
  // evaluation is deterministic), and everything before it is untouched.
  non_sensitive_mask_.Resize(table_.num_rows());
  const size_t begin = old_rows & ~size_t{63};
  non_sensitive_.EvalRangeInto(table_, begin, table_.num_rows(),
                               &non_sensitive_mask_);
  return Status::OK();
}

SnapshotPtr TableBuilder::BuildSnapshot(uint64_t generation) const {
  auto snapshot = std::make_shared<Snapshot>();
  snapshot->generation = generation;
  snapshot->table = table_;
  snapshot->non_sensitive = non_sensitive_mask_;
  return snapshot;
}

}  // namespace osdp
