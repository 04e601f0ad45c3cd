#include "src/data/predicate.h"

#include "src/common/check.h"

namespace osdp {

namespace {

const char* OpSymbol(PredicateOp op) {
  switch (op) {
    case PredicateOp::kEq: return "=";
    case PredicateOp::kNe: return "!=";
    case PredicateOp::kLt: return "<";
    case PredicateOp::kLe: return "<=";
    case PredicateOp::kGt: return ">";
    case PredicateOp::kGe: return ">=";
    default: return "?";
  }
}

Predicate::Node MakeLeaf(PredicateOp op, std::string column,
                         std::vector<Value> lits) {
  Predicate::Node n;
  n.op = op;
  n.column = std::move(column);
  n.literals = std::move(lits);
  return n;
}

std::string NodeToString(const Predicate::Node& n) {
  switch (n.op) {
    case PredicateOp::kTrue:
      return "TRUE";
    case PredicateOp::kFalse:
      return "FALSE";
    case PredicateOp::kAnd:
      return "(" + NodeToString(*n.left) + " AND " + NodeToString(*n.right) + ")";
    case PredicateOp::kOr:
      return "(" + NodeToString(*n.left) + " OR " + NodeToString(*n.right) + ")";
    case PredicateOp::kNot:
      return "NOT " + NodeToString(*n.left);
    case PredicateOp::kIn: {
      std::string out = n.column + " IN (";
      for (size_t i = 0; i < n.literals.size(); ++i) {
        if (i) out += ", ";
        out += n.literals[i].ToString();
      }
      return out + ")";
    }
    default:
      return n.column + " " + OpSymbol(n.op) + " " + n.literals[0].ToString();
  }
}

}  // namespace

#define OSDP_DEFINE_LEAF(Name, Kind)                                     \
  Predicate Predicate::Name(std::string column, Value literal) {         \
    return Predicate(std::make_shared<const Node>(                       \
        MakeLeaf(Kind, std::move(column), {std::move(literal)})));       \
  }

OSDP_DEFINE_LEAF(Eq, PredicateOp::kEq)
OSDP_DEFINE_LEAF(Ne, PredicateOp::kNe)
OSDP_DEFINE_LEAF(Lt, PredicateOp::kLt)
OSDP_DEFINE_LEAF(Le, PredicateOp::kLe)
OSDP_DEFINE_LEAF(Gt, PredicateOp::kGt)
OSDP_DEFINE_LEAF(Ge, PredicateOp::kGe)

#undef OSDP_DEFINE_LEAF

Predicate Predicate::In(std::string column, std::vector<Value> literals) {
  return Predicate(std::make_shared<const Node>(
      MakeLeaf(PredicateOp::kIn, std::move(column), std::move(literals))));
}

Predicate Predicate::And(Predicate a, Predicate b) {
  Node n;
  n.op = PredicateOp::kAnd;
  n.left = std::move(a.node_);
  n.right = std::move(b.node_);
  return Predicate(std::make_shared<const Node>(std::move(n)));
}

Predicate Predicate::Or(Predicate a, Predicate b) {
  Node n;
  n.op = PredicateOp::kOr;
  n.left = std::move(a.node_);
  n.right = std::move(b.node_);
  return Predicate(std::make_shared<const Node>(std::move(n)));
}

Predicate Predicate::Not(Predicate a) {
  Node n;
  n.op = PredicateOp::kNot;
  n.left = std::move(a.node_);
  return Predicate(std::make_shared<const Node>(std::move(n)));
}

Predicate Predicate::True() {
  Node n;
  n.op = PredicateOp::kTrue;
  return Predicate(std::make_shared<const Node>(std::move(n)));
}

Predicate Predicate::False() {
  Node n;
  n.op = PredicateOp::kFalse;
  return Predicate(std::make_shared<const Node>(std::move(n)));
}

std::string Predicate::ToString() const {
  OSDP_CHECK(node_ != nullptr);
  return NodeToString(*node_);
}

}  // namespace osdp
