// Predicate: boolean row expressions for policies and query conditions.
//
// Predicates are small immutable expression trees built with combinators:
//
//   auto minors   = Predicate::Le("age", Value(int64_t{17}));
//   auto sensitive = Predicate::Or(Predicate::Eq("race", Value("NativeAmerican")),
//                                  Predicate::Eq("opt_in", Value(int64_t{0})));
//
// A predicate is only a description. Every classification in the library
// binds it once against a Schema with CompiledPredicate
// (compiled_predicate.h) and evaluates it column-at-a-time into a RowMask;
// binding is also where an unknown column or a string/numeric comparison is
// reported, as a Status. The row-at-a-time semantics oracle the compiled
// scan is tested against lives in tests/reference_predicate.h.

#ifndef OSDP_DATA_PREDICATE_H_
#define OSDP_DATA_PREDICATE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/data/value.h"

namespace osdp {

/// Node operator of a predicate expression tree. Exposed so that compilers /
/// printers outside predicate.cc (notably CompiledPredicate) can walk trees.
enum class PredicateOp {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kIn,
  kAnd,
  kOr,
  kNot,
  kTrue,
  kFalse,
};

/// \brief Immutable boolean expression over a row. Cheap to copy (shared
/// internal nodes).
class Predicate {
 public:
  /// \name Leaf constructors: column <op> literal.
  /// @{
  static Predicate Eq(std::string column, Value literal);
  static Predicate Ne(std::string column, Value literal);
  static Predicate Lt(std::string column, Value literal);
  static Predicate Le(std::string column, Value literal);
  static Predicate Gt(std::string column, Value literal);
  static Predicate Ge(std::string column, Value literal);
  /// column ∈ {literals...}
  static Predicate In(std::string column, std::vector<Value> literals);
  /// @}

  /// \name Logical combinators.
  /// @{
  static Predicate And(Predicate a, Predicate b);
  static Predicate Or(Predicate a, Predicate b);
  static Predicate Not(Predicate a);
  /// Constant true / false.
  static Predicate True();
  static Predicate False();
  /// @}

  /// Debug rendering, e.g. "(age <= 17 OR opt_in = 0)".
  std::string ToString() const;

  /// Implementation node; see below.
  struct Node;

  /// The root of the expression tree (never null for a built predicate).
  const Node* root() const { return node_.get(); }

 private:
  explicit Predicate(std::shared_ptr<const Node> node) : node_(std::move(node)) {}
  std::shared_ptr<const Node> node_;
};

/// Expression tree node. Leaves (kEq..kIn) carry `column` + `literals`;
/// logical nodes carry children. Defined in the header so CompiledPredicate
/// can translate trees without re-parsing.
struct Predicate::Node {
  PredicateOp op;
  // Leaf payload.
  std::string column;
  std::vector<Value> literals;
  // Children for logical nodes.
  std::shared_ptr<const Node> left;
  std::shared_ptr<const Node> right;
};

}  // namespace osdp

#endif  // OSDP_DATA_PREDICATE_H_
