// A small textual policy language, so privacy officers can write the paper's
// policy examples directly:
//
//   "age <= 17"
//   "race = 'NativeAmerican' OR opt_in = 0"
//   "NOT (dept IN ('hr', 'legal')) AND salary > 100000"
//
// The expression describes the SENSITIVE records (P(r) = 0 when it holds).
//
// Grammar (case-insensitive keywords):
//   policy     := or_expr
//   or_expr    := and_expr ( OR and_expr )*
//   and_expr   := unary ( AND unary )*
//   unary      := NOT unary | '(' or_expr ')' | comparison | TRUE | FALSE
//   comparison := ident op literal | ident IN '(' literal (',' literal)* ')'
//   op         := = | != | < | <= | > | >=
//   literal    := integer | float | 'string' | "string"
//
// NOTs and parentheses nest at most 256 deep; deeper text is an
// InvalidArgument naming the position, never a stack overflow. AND and OR
// chains are loops, so their length is unbounded.

#ifndef OSDP_POLICY_PARSER_H_
#define OSDP_POLICY_PARSER_H_

#include <string>

#include "src/common/result.h"
#include "src/data/predicate.h"
#include "src/policy/policy.h"

namespace osdp {

/// \brief Parses a policy-language expression into a Predicate. Errors carry
/// the offending position and token.
Result<Predicate> ParsePredicate(const std::string& text);

/// \brief Parses a sensitivity expression into a Policy (records matching
/// the expression are sensitive).
Result<Policy> ParsePolicy(const std::string& text, std::string name = "");

}  // namespace osdp

#endif  // OSDP_POLICY_PARSER_H_
