#include "src/accesscontrol/access_control.h"

#include "src/data/compiled_predicate.h"
#include "src/data/row_mask.h"
#include "src/data/table_view.h"

namespace osdp {

Result<AccessControlledDb> AccessControlledDb::Create(Table data,
                                                      const Policy& policy) {
  OSDP_ASSIGN_OR_RETURN(
      CompiledPredicate sensitive,
      CompiledPredicate::Compile(policy.sensitive_predicate(), data.schema()));
  RowMask sensitive_mask = sensitive.EvalMask(data);
  return AccessControlledDb(std::move(data), std::move(sensitive_mask));
}

Result<AccessControlResponse> AccessControlledDb::Select(
    const Predicate& pred, AccessControlModel model) const {
  // One compiled scan for the query predicate against the policy mask
  // classified at Create, then word-wise mask algebra.
  OSDP_ASSIGN_OR_RETURN(CompiledPredicate compiled,
                        CompiledPredicate::Compile(pred, data_.schema()));
  RowMask matching = compiled.EvalMask(data_);

  AccessControlResponse resp;
  if (model == AccessControlModel::kNonTruman &&
      matching.Intersects(sensitive_mask_)) {
    resp.kind = AccessControlResponse::Kind::kRejected;
    return resp;
  }

  matching.AndNotWith(sensitive_mask_);  // restrict to the authorized view
  const TableView authorized = data_.SelectRowsView(std::move(matching));

  if (authorized.empty()) {
    resp.kind = AccessControlResponse::Kind::kEmpty;
    return resp;
  }
  resp.kind = AccessControlResponse::Kind::kAnswer;
  resp.rows = authorized.Materialize();
  return resp;
}

}  // namespace osdp
