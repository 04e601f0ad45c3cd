#include "src/policy/parser.h"

#include <cctype>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/env.h"

namespace osdp {

namespace {

// Deepest nesting of NOTs and parentheses the recursive descent accepts.
// Each level costs a few stack frames, so untrusted text nested thousands
// deep would overflow the stack; deeper input is an InvalidArgument.
constexpr size_t kMaxNestingDepth = 256;

enum class TokKind {
  kIdent,
  kInt,
  kFloat,
  kString,
  kOp,      // = != < <= > >=
  kLParen,
  kRParen,
  kComma,
  kAnd,
  kOr,
  kNot,
  kIn,
  kTrue,
  kFalse,
  kEnd,
};

struct Token {
  TokKind kind;
  std::string text;
  size_t pos;
};

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.';
}

std::string Lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> out;
    size_t i = 0;
    while (i < text_.size()) {
      const char c = text_[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (c == '(') {
        out.push_back({TokKind::kLParen, "(", i++});
        continue;
      }
      if (c == ')') {
        out.push_back({TokKind::kRParen, ")", i++});
        continue;
      }
      if (c == ',') {
        out.push_back({TokKind::kComma, ",", i++});
        continue;
      }
      if (c == '\'' || c == '"') {
        const char quote = c;
        const size_t start = ++i;
        while (i < text_.size() && text_[i] != quote) ++i;
        if (i >= text_.size()) {
          return Status::InvalidArgument(
              "unterminated string literal at position " +
              std::to_string(start - 1));
        }
        out.push_back({TokKind::kString, text_.substr(start, i - start),
                       start - 1});
        ++i;  // closing quote
        continue;
      }
      if (c == '=' ) {
        out.push_back({TokKind::kOp, "=", i++});
        continue;
      }
      if (c == '!' && i + 1 < text_.size() && text_[i + 1] == '=') {
        out.push_back({TokKind::kOp, "!=", i});
        i += 2;
        continue;
      }
      if (c == '<' || c == '>') {
        if (i + 1 < text_.size() && text_[i + 1] == '=') {
          out.push_back({TokKind::kOp, std::string(1, c) + "=", i});
          i += 2;
        } else {
          out.push_back({TokKind::kOp, std::string(1, c), i++});
        }
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) ||
          (c == '-' && i + 1 < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[i + 1])))) {
        const size_t start = i;
        ++i;
        bool is_float = false;
        while (i < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[i])) ||
                text_[i] == '.')) {
          is_float |= text_[i] == '.';
          ++i;
        }
        out.push_back({is_float ? TokKind::kFloat : TokKind::kInt,
                       text_.substr(start, i - start), start});
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        const size_t start = i;
        while (i < text_.size() && IsIdentChar(text_[i])) ++i;
        std::string word = text_.substr(start, i - start);
        const std::string lower = Lower(word);
        TokKind kind = TokKind::kIdent;
        if (lower == "and") kind = TokKind::kAnd;
        else if (lower == "or") kind = TokKind::kOr;
        else if (lower == "not") kind = TokKind::kNot;
        else if (lower == "in") kind = TokKind::kIn;
        else if (lower == "true") kind = TokKind::kTrue;
        else if (lower == "false") kind = TokKind::kFalse;
        out.push_back({kind, std::move(word), start});
        continue;
      }
      return Status::InvalidArgument("unexpected character '" +
                                     std::string(1, c) + "' at position " +
                                     std::to_string(i));
    }
    out.push_back({TokKind::kEnd, "", text_.size()});
    return out;
  }

 private:
  const std::string& text_;
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Predicate> Parse() {
    OSDP_ASSIGN_OR_RETURN(Predicate p, ParseOr());
    if (Peek().kind != TokKind::kEnd) {
      return Unexpected("end of expression");
    }
    return p;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  Token Advance() { return tokens_[pos_++]; }
  bool Match(TokKind kind) {
    if (Peek().kind != kind) return false;
    ++pos_;
    return true;
  }

  Status Unexpected(const std::string& wanted) const {
    return Status::InvalidArgument(
        "expected " + wanted + " but found '" + Peek().text +
        "' at position " + std::to_string(Peek().pos));
  }

  // A number token the strict converters refuse: a second '.', or a value
  // outside int64 or the finite doubles.
  static Status BadNumber(const Token& tok) {
    return Status::InvalidArgument("malformed or out-of-range number '" +
                                   tok.text + "' at position " +
                                   std::to_string(tok.pos));
  }

  Result<Predicate> ParseOr() {
    OSDP_ASSIGN_OR_RETURN(Predicate left, ParseAnd());
    while (Match(TokKind::kOr)) {
      OSDP_ASSIGN_OR_RETURN(Predicate right, ParseAnd());
      left = Predicate::Or(std::move(left), std::move(right));
    }
    return left;
  }

  Result<Predicate> ParseAnd() {
    OSDP_ASSIGN_OR_RETURN(Predicate left, ParseUnary());
    while (Match(TokKind::kAnd)) {
      OSDP_ASSIGN_OR_RETURN(Predicate right, ParseUnary());
      left = Predicate::And(std::move(left), std::move(right));
    }
    return left;
  }

  Result<Predicate> ParseUnary() {
    if (Peek().kind == TokKind::kNot || Peek().kind == TokKind::kLParen) {
      if (depth_ == kMaxNestingDepth) {
        return Status::InvalidArgument(
            "nesting deeper than " + std::to_string(kMaxNestingDepth) +
            " at position " + std::to_string(Peek().pos));
      }
      ++depth_;
      Result<Predicate> nested = ParseNested();
      --depth_;
      return nested;
    }
    if (Match(TokKind::kTrue)) return Predicate::True();
    if (Match(TokKind::kFalse)) return Predicate::False();
    return ParseComparison();
  }

  // NOT unary | '(' or_expr ')': one nesting level below ParseUnary.
  Result<Predicate> ParseNested() {
    if (Match(TokKind::kNot)) {
      OSDP_ASSIGN_OR_RETURN(Predicate inner, ParseUnary());
      return Predicate::Not(std::move(inner));
    }
    Advance();  // '('
    OSDP_ASSIGN_OR_RETURN(Predicate inner, ParseOr());
    if (!Match(TokKind::kRParen)) return Unexpected("')'");
    return inner;
  }

  Result<Value> ParseLiteral() {
    const Token tok = Advance();
    switch (tok.kind) {
      case TokKind::kInt: {
        long long v = 0;
        if (!ParseInt64Strict(tok.text.c_str(), &v)) return BadNumber(tok);
        return Value(static_cast<int64_t>(v));
      }
      case TokKind::kFloat: {
        double v = 0.0;
        if (!ParseDoubleStrict(tok.text.c_str(), &v)) return BadNumber(tok);
        return Value(v);
      }
      case TokKind::kString:
        return Value(tok.text);
      default:
        --pos_;
        return Unexpected("a literal");
    }
  }

  Result<Predicate> ParseComparison() {
    if (Peek().kind != TokKind::kIdent) return Unexpected("a column name");
    const std::string column = Advance().text;

    if (Match(TokKind::kIn)) {
      if (!Match(TokKind::kLParen)) return Unexpected("'(' after IN");
      std::vector<Value> literals;
      do {
        OSDP_ASSIGN_OR_RETURN(Value v, ParseLiteral());
        literals.push_back(std::move(v));
      } while (Match(TokKind::kComma));
      if (!Match(TokKind::kRParen)) return Unexpected("')' after IN list");
      return Predicate::In(column, std::move(literals));
    }

    if (Peek().kind != TokKind::kOp) return Unexpected("a comparison operator");
    const std::string op = Advance().text;
    OSDP_ASSIGN_OR_RETURN(Value literal, ParseLiteral());
    if (op == "=") return Predicate::Eq(column, std::move(literal));
    if (op == "!=") return Predicate::Ne(column, std::move(literal));
    if (op == "<") return Predicate::Lt(column, std::move(literal));
    if (op == "<=") return Predicate::Le(column, std::move(literal));
    if (op == ">") return Predicate::Gt(column, std::move(literal));
    if (op == ">=") return Predicate::Ge(column, std::move(literal));
    return Status::InvalidArgument("unknown operator '" + op + "'");
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  size_t depth_ = 0;  // NOTs and parentheses open around the current token
};

}  // namespace

Result<Predicate> ParsePredicate(const std::string& text) {
  Lexer lexer(text);
  OSDP_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens));
  return parser.Parse();
}

Result<Policy> ParsePolicy(const std::string& text, std::string name) {
  OSDP_ASSIGN_OR_RETURN(Predicate pred, ParsePredicate(text));
  if (name.empty()) name = "policy(" + text + ")";
  return Policy::SensitiveWhen(std::move(pred), std::move(name));
}

}  // namespace osdp
