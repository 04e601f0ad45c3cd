// Tests for the policy-language parser.

#include <string>

#include <gtest/gtest.h>

#include "src/common/check.h"
#include "src/policy/parser.h"
#include "tests/reference_predicate.h"
#include "tests/table_rows.h"

namespace osdp {
namespace {

Table TestTable() {
  return TableFromRows(
      Schema({{"age", ValueType::kInt64},
              {"salary", ValueType::kDouble},
              {"race", ValueType::kString},
              {"opt_in", ValueType::kInt64}}),
      {{Value(15), Value(0.0), Value("White"), Value(1)},
       {Value(40), Value(120000.0), Value("Asian"), Value(1)},
       {Value(52), Value(80000.0), Value("NativeAmerican"), Value(0)}});
}

TEST(ParserTest, SimpleComparisons) {
  Table t = TestTable();
  EXPECT_TRUE(ReferenceEval(*ParsePredicate("age <= 17"), t, 0));
  EXPECT_FALSE(ReferenceEval(*ParsePredicate("age <= 17"), t, 1));
  EXPECT_TRUE(ReferenceEval(*ParsePredicate("salary > 100000"), t, 1));
  EXPECT_TRUE(ReferenceEval(*ParsePredicate("age != 40"), t, 0));
  EXPECT_TRUE(ReferenceEval(*ParsePredicate("age = 52"), t, 2));
  EXPECT_TRUE(ReferenceEval(*ParsePredicate("age >= 52"), t, 2));
  EXPECT_TRUE(ReferenceEval(*ParsePredicate("age < 16"), t, 0));
}

TEST(ParserTest, StringLiteralsBothQuoteStyles) {
  Table t = TestTable();
  EXPECT_TRUE(
      ReferenceEval(*ParsePredicate("race = 'NativeAmerican'"), t, 2));
  EXPECT_TRUE(ReferenceEval(*ParsePredicate("race = \"Asian\""), t, 1));
}

TEST(ParserTest, PaperPolicyExpressions) {
  // The two policy examples from Section 3.1, verbatim in the DSL.
  Table t = TestTable();
  const RowMask minors = ParsePolicy("age <= 17")->SensitiveMask(t);
  EXPECT_TRUE(minors.Test(0));
  EXPECT_FALSE(minors.Test(1));

  const RowMask mixed =
      ParsePolicy("race = 'NativeAmerican' OR opt_in = 0")->SensitiveMask(t);
  EXPECT_FALSE(mixed.Test(0));
  EXPECT_FALSE(mixed.Test(1));
  EXPECT_TRUE(mixed.Test(2));
}

TEST(ParserTest, PrecedenceAndParentheses) {
  Table t = TestTable();
  // AND binds tighter than OR.
  auto p = *ParsePredicate("age <= 17 OR age >= 50 AND opt_in = 0");
  EXPECT_TRUE(ReferenceEval(p, t, 0));   // minor
  EXPECT_TRUE(ReferenceEval(p, t, 2));   // 52 and opted out
  EXPECT_FALSE(ReferenceEval(p, t, 1));
  // Parentheses override.
  auto q = *ParsePredicate("(age <= 17 OR age >= 50) AND opt_in = 0");
  EXPECT_FALSE(ReferenceEval(q, t, 0));  // minor but opted in
  EXPECT_TRUE(ReferenceEval(q, t, 2));
}

TEST(ParserTest, NotAndConstants) {
  Table t = TestTable();
  EXPECT_TRUE(ReferenceEval(*ParsePredicate("NOT age <= 17"), t, 1));
  EXPECT_TRUE(ReferenceEval(*ParsePredicate("TRUE"), t, 0));
  EXPECT_FALSE(ReferenceEval(*ParsePredicate("FALSE"), t, 0));
  EXPECT_TRUE(ReferenceEval(*ParsePredicate("NOT FALSE"), t, 0));
}

TEST(ParserTest, InLists) {
  Table t = TestTable();
  auto p = *ParsePredicate("race IN ('Asian', 'Black')");
  EXPECT_FALSE(ReferenceEval(p, t, 0));
  EXPECT_TRUE(ReferenceEval(p, t, 1));
  auto nums = *ParsePredicate("age IN (15, 52)");
  EXPECT_TRUE(ReferenceEval(nums, t, 0));
  EXPECT_FALSE(ReferenceEval(nums, t, 1));
}

TEST(ParserTest, CaseInsensitiveKeywords) {
  Table t = TestTable();
  EXPECT_TRUE(
      ReferenceEval(*ParsePredicate("age <= 17 or age >= 50"), t, 2));
  EXPECT_TRUE(ReferenceEval(*ParsePredicate("not (age = 40)"), t, 0));
  EXPECT_TRUE(ReferenceEval(*ParsePredicate("age in (15)"), t, 0));
}

TEST(ParserTest, FloatsAndNegativeNumbers) {
  Table t = TestTable();
  EXPECT_TRUE(ReferenceEval(*ParsePredicate("salary >= 0.5"), t, 1));
  EXPECT_TRUE(ReferenceEval(*ParsePredicate("salary > -1"), t, 0));
}

TEST(ParserTest, ErrorsCarryPositions) {
  EXPECT_FALSE(ParsePredicate("").ok());
  EXPECT_FALSE(ParsePredicate("age <=").ok());
  EXPECT_FALSE(ParsePredicate("age <= 17 extra").ok());
  EXPECT_FALSE(ParsePredicate("(age <= 17").ok());
  EXPECT_FALSE(ParsePredicate("age IN 17").ok());
  EXPECT_FALSE(ParsePredicate("age IN (17").ok());
  EXPECT_FALSE(ParsePredicate("'unterminated").ok());
  EXPECT_FALSE(ParsePredicate("age # 17").ok());
  EXPECT_FALSE(ParsePredicate("17 <= age").ok());
  const Status s = ParsePredicate("age <= 17 extra").status();
  EXPECT_NE(s.message().find("position"), std::string::npos);
}

// A number token is converted whole: a second '.' or a value past int64 or
// the finite doubles is an error naming the token's position, never the
// number's valid prefix or a saturated value.
TEST(ParserTest, MalformedNumbersAreInvalidArgument) {
  const std::string past_double_max = "salary < 1" + std::string(400, '0');
  for (const std::string& text :
       {std::string("age <= 1.2.3"), std::string("age <= 1..5"),
        std::string("age = 99999999999999999999"),
        std::string("age = -99999999999999999999"),
        std::string("age IN (1, 2.3.4)"), past_double_max + ".5"}) {
    const Status s = ParsePredicate(text).status();
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << text;
    EXPECT_NE(s.message().find("at position "), std::string::npos) << text;
  }
  EXPECT_NE(ParsePredicate("age <= 1.2.3").status().message().find(
                "'1.2.3' at position 7"),
            std::string::npos);
  // The extremes that do fit still parse exactly.
  EXPECT_EQ(ParsePredicate("age = 9223372036854775807")->ToString(),
            "age = 9223372036854775807");
  EXPECT_EQ(ParsePredicate("age = -9223372036854775808")->ToString(),
            "age = -9223372036854775808");
}

std::string Repeat(const std::string& unit, size_t n) {
  std::string out;
  for (size_t i = 0; i < n; ++i) out += unit;
  return out;
}

TEST(ParserTest, NestingPastTheCapIsAnErrorNotAStackOverflow) {
  // Untrusted policy text: 100000 open parentheses or NOTs would overflow
  // the recursive descent's stack without the nesting cap.
  for (const std::string& text :
       {Repeat("(", 100000), Repeat("NOT ", 100000) + "age <= 17"}) {
    const Status s = ParsePredicate(text).status();
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
    EXPECT_NE(s.message().find("nesting deeper than 256 at position"),
              std::string::npos)
        << s.ToString();
  }
  EXPECT_FALSE(
      ParsePredicate(Repeat("(", 257) + "age <= 17" + Repeat(")", 257)).ok());
}

TEST(ParserTest, NestingAtTheCapParses) {
  Table t = TestTable();
  const Result<Predicate> parens =
      ParsePredicate(Repeat("(", 256) + "age <= 17" + Repeat(")", 256));
  ASSERT_TRUE(parens.ok()) << parens.status().ToString();
  EXPECT_TRUE(ReferenceEval(*parens, t, 0));
  EXPECT_FALSE(ReferenceEval(*parens, t, 1));
  const Result<Predicate> nots =
      ParsePredicate(Repeat("NOT ", 256) + "age <= 17");
  ASSERT_TRUE(nots.ok()) << nots.status().ToString();
  EXPECT_TRUE(ReferenceEval(*nots, t, 0));
  EXPECT_FALSE(ReferenceEval(*nots, t, 1));
  // The cap counts NOTs and parentheses alike: 255 NOTs and one
  // parenthesis reach it, one more NOT passes it.
  const std::string mixed = Repeat("NOT ", 255) + "(age <= 17)";
  ASSERT_TRUE(ParsePredicate(mixed).ok());
  EXPECT_FALSE(ReferenceEval(*ParsePredicate(mixed), t, 0));
  EXPECT_FALSE(ParsePredicate("NOT " + mixed).ok());
}

TEST(ParserTest, PolicyNameDefaultsToExpression) {
  Policy p = *ParsePolicy("age <= 17");
  EXPECT_NE(p.name().find("age <= 17"), std::string::npos);
  Policy named = *ParsePolicy("age <= 17", "P_minors");
  EXPECT_EQ(named.name(), "P_minors");
}

TEST(ParserTest, RoundTripThroughPredicateToString) {
  // The rendered form of a parsed predicate parses again to an equivalent
  // predicate (checked by evaluation).
  Table t = TestTable();
  const std::string text = "(age <= 17 OR race = 'Asian') AND NOT opt_in = 0";
  Predicate original = *ParsePredicate(text);
  Predicate reparsed = *ParsePredicate(original.ToString());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_EQ(ReferenceEval(original, t, r), ReferenceEval(reparsed, t, r))
        << r;
  }
}

}  // namespace
}  // namespace osdp
