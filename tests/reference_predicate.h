// Row-at-a-time reference evaluator for Predicate trees: the semantics oracle
// the compiled scan (src/data/compiled_predicate.h) is checked against. It
// resolves column names through the schema and walks the tree once per row,
// boxing each cell it reads as a dynamic Value — deliberately simple, never
// on a production path. Comparison semantics match the library's: numeric
// columns compare as doubles (int64 and double literals mix freely), strings
// compare lexicographically, and an unknown column or a string/numeric
// comparison aborts (CompiledPredicate::Compile reports both as a Status
// instead).

#ifndef OSDP_TESTS_REFERENCE_PREDICATE_H_
#define OSDP_TESTS_REFERENCE_PREDICATE_H_

#include <algorithm>
#include <cstddef>

#include "src/common/check.h"
#include "src/data/predicate.h"
#include "src/data/schema.h"
#include "src/data/table.h"
#include "src/data/value.h"
#include "tests/table_rows.h"

namespace osdp {
namespace reference_internal {

template <typename T>
bool ApplyOp(PredicateOp op, const T& a, const T& b) {
  switch (op) {
    case PredicateOp::kEq: return a == b;
    case PredicateOp::kNe: return a != b;
    case PredicateOp::kLt: return a < b;
    case PredicateOp::kLe: return a <= b;
    case PredicateOp::kGt: return a > b;
    case PredicateOp::kGe: return a >= b;
    default: OSDP_CHECK_MSG(false, "bad comparison op"); return false;
  }
}

inline bool CompareCell(PredicateOp op, const Value& lhs, const Value& rhs) {
  if (lhs.is_string() || rhs.is_string()) {
    OSDP_CHECK_MSG(lhs.is_string() && rhs.is_string(),
                   "string compared against numeric");
    return ApplyOp(op, lhs.AsString(), rhs.AsString());
  }
  return ApplyOp(op, lhs.AsNumeric(), rhs.AsNumeric());
}

// `cell` maps a column index to the Value of that column in the row under
// evaluation.
template <typename CellFn>
bool EvalNode(const Predicate::Node& n, const Schema& schema,
              const CellFn& cell) {
  switch (n.op) {
    case PredicateOp::kTrue:
      return true;
    case PredicateOp::kFalse:
      return false;
    case PredicateOp::kAnd:
      return EvalNode(*n.left, schema, cell) &&
             EvalNode(*n.right, schema, cell);
    case PredicateOp::kOr:
      return EvalNode(*n.left, schema, cell) ||
             EvalNode(*n.right, schema, cell);
    case PredicateOp::kNot:
      return !EvalNode(*n.left, schema, cell);
    default:
      break;
  }
  auto idx = schema.FieldIndex(n.column);
  OSDP_CHECK_MSG(idx.ok(), "predicate references unknown column " << n.column);
  const Value v = cell(idx.ValueOrDie());
  if (n.op == PredicateOp::kIn) {
    return std::any_of(n.literals.begin(), n.literals.end(),
                       [&](const Value& lit) {
                         return CompareCell(PredicateOp::kEq, v, lit);
                       });
  }
  OSDP_CHECK(n.literals.size() == 1);
  return CompareCell(n.op, v, n.literals[0]);
}

}  // namespace reference_internal

/// `pred` evaluated on row `row` of `table`.
inline bool ReferenceEval(const Predicate& pred, const Table& table,
                          size_t row) {
  return reference_internal::EvalNode(
      *pred.root(), table.schema(),
      [&](size_t col) { return CellAt(table, row, col); });
}

/// `pred` evaluated on a materialized record with the given schema.
inline bool ReferenceEval(const Predicate& pred, const Schema& schema,
                          const Row& record) {
  return reference_internal::EvalNode(*pred.root(), schema, [&](size_t col) {
    OSDP_CHECK(col < record.size());
    return record[col];
  });
}

}  // namespace osdp

#endif  // OSDP_TESTS_REFERENCE_PREDICATE_H_
