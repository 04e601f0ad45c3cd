#include "src/data/compiled_predicate.h"

#include <algorithm>
#include <cstring>
#include <string_view>
#include <utility>

#include "src/common/check.h"

namespace osdp {

// The compiled program: the same tree shape as Predicate::Node, but with
// column indices resolved, each comparison specialized to the column's static
// type, and literals pre-converted (numerics widened to double — matching the
// reference evaluator's comparison semantics — strings interned in place).
struct CompiledPredicate::Op {
  enum class Kind {
    kConstTrue,
    kConstFalse,
    kCmpNum,  // numeric column <op> numeric literal
    kCmpStr,  // string column <op> string literal
    kInNum,   // numeric column ∈ {numeric literals}
    kInStr,   // string column ∈ {string literals}
    kAnd,
    kOr,
    kNot,
  };

  Kind kind;
  PredicateOp cmp = PredicateOp::kEq;  // for kCmpNum / kCmpStr
  size_t col = 0;
  ValueType col_type = ValueType::kInt64;
  double num_lit = 0.0;
  std::string str_lit;
  std::vector<double> num_set;
  std::vector<std::string> str_set;
  std::shared_ptr<const Op> left;
  std::shared_ptr<const Op> right;
};

namespace {

using Op = CompiledPredicate::Op;

bool IsComparison(PredicateOp op) {
  switch (op) {
    case PredicateOp::kEq:
    case PredicateOp::kNe:
    case PredicateOp::kLt:
    case PredicateOp::kLe:
    case PredicateOp::kGt:
    case PredicateOp::kGe:
      return true;
    default:
      return false;
  }
}

Result<std::shared_ptr<const Op>> CompileNode(const Predicate::Node& n,
                                              const Schema& schema) {
  auto op = std::make_shared<Op>();
  switch (n.op) {
    case PredicateOp::kTrue:
      op->kind = Op::Kind::kConstTrue;
      return std::shared_ptr<const Op>(op);
    case PredicateOp::kFalse:
      op->kind = Op::Kind::kConstFalse;
      return std::shared_ptr<const Op>(op);
    case PredicateOp::kAnd:
    case PredicateOp::kOr: {
      op->kind =
          n.op == PredicateOp::kAnd ? Op::Kind::kAnd : Op::Kind::kOr;
      OSDP_ASSIGN_OR_RETURN(op->left, CompileNode(*n.left, schema));
      OSDP_ASSIGN_OR_RETURN(op->right, CompileNode(*n.right, schema));
      return std::shared_ptr<const Op>(op);
    }
    case PredicateOp::kNot: {
      op->kind = Op::Kind::kNot;
      OSDP_ASSIGN_OR_RETURN(op->left, CompileNode(*n.left, schema));
      return std::shared_ptr<const Op>(op);
    }
    default:
      break;
  }

  // Leaf: resolve the column once and type-check every literal now, so the
  // scan loops carry no per-row checks.
  OSDP_ASSIGN_OR_RETURN(op->col, schema.FieldIndex(n.column));
  op->col_type = schema.field(op->col).type;
  const bool str_col = op->col_type == ValueType::kString;
  for (const Value& lit : n.literals) {
    if (lit.is_string() != str_col) {
      return Status::InvalidArgument(
          "predicate compares string against numeric in column '" + n.column +
          "'");
    }
  }

  if (n.op == PredicateOp::kIn) {
    if (n.literals.empty()) {
      op->kind = Op::Kind::kConstFalse;  // x ∈ ∅ is vacuously false
      return std::shared_ptr<const Op>(op);
    }
    op->kind = str_col ? Op::Kind::kInStr : Op::Kind::kInNum;
    for (const Value& lit : n.literals) {
      if (str_col) {
        op->str_set.push_back(lit.AsString());
      } else {
        op->num_set.push_back(lit.AsNumeric());
      }
    }
    return std::shared_ptr<const Op>(op);
  }

  OSDP_CHECK(IsComparison(n.op) && n.literals.size() == 1);
  op->cmp = n.op;
  op->kind = str_col ? Op::Kind::kCmpStr : Op::Kind::kCmpNum;
  if (str_col) {
    op->str_lit = n.literals[0].AsString();
  } else {
    op->num_lit = n.literals[0].AsNumeric();
  }
  return std::shared_ptr<const Op>(op);
}

// Packs fn(row) for rows [row_begin, row_end) into `words`, 64 bits at a
// time. `row_begin` is a multiple of 64 and words[0] is the word holding row
// `row_begin`, so the bit packing per word is identical to a whole-table
// scan — the invariant behind serial/sharded bit-identity. fn must be pure.
template <typename Fn>
void FillMask(size_t row_begin, size_t row_end, uint64_t* words,
              const Fn& fn) {
  const size_t n = row_end - row_begin;
  const size_t full_words = n >> 6;
  for (size_t wi = 0; wi < full_words; ++wi) {
    const size_t base = row_begin + (wi << 6);
    uint64_t w = 0;
    for (size_t b = 0; b < 64; ++b) {
      w |= static_cast<uint64_t>(fn(base + b) ? 1 : 0) << b;
    }
    words[wi] = w;
  }
  if (n & 63) {
    uint64_t w = 0;
    for (size_t i = row_begin + (full_words << 6); i < row_end; ++i) {
      w |= static_cast<uint64_t>(fn(i) ? 1 : 0) << (i & 63);
    }
    words[full_words] = w;
  }
}

// Comparison loops. Numeric columns compare as double regardless of storage
// type — exactly the reference CompareCell semantics.
template <typename SrcT>
void FillNumCmp(PredicateOp cmp, const SrcT* col, size_t row_begin,
                size_t row_end, double lit, uint64_t* words) {
  switch (cmp) {
    case PredicateOp::kEq:
      FillMask(row_begin, row_end, words,
               [&](size_t i) { return static_cast<double>(col[i]) == lit; });
      break;
    case PredicateOp::kNe:
      FillMask(row_begin, row_end, words,
               [&](size_t i) { return static_cast<double>(col[i]) != lit; });
      break;
    case PredicateOp::kLt:
      FillMask(row_begin, row_end, words,
               [&](size_t i) { return static_cast<double>(col[i]) < lit; });
      break;
    case PredicateOp::kLe:
      FillMask(row_begin, row_end, words,
               [&](size_t i) { return static_cast<double>(col[i]) <= lit; });
      break;
    case PredicateOp::kGt:
      FillMask(row_begin, row_end, words,
               [&](size_t i) { return static_cast<double>(col[i]) > lit; });
      break;
    case PredicateOp::kGe:
      FillMask(row_begin, row_end, words,
               [&](size_t i) { return static_cast<double>(col[i]) >= lit; });
      break;
    default:
      OSDP_CHECK_MSG(false, "bad comparison op");
  }
}

void FillStrCmp(PredicateOp cmp, const std::string* col, size_t row_begin,
                size_t row_end, std::string_view lit, uint64_t* words) {
  switch (cmp) {
    case PredicateOp::kEq:
      FillMask(row_begin, row_end, words,
               [&](size_t i) { return std::string_view(col[i]) == lit; });
      break;
    case PredicateOp::kNe:
      FillMask(row_begin, row_end, words,
               [&](size_t i) { return std::string_view(col[i]) != lit; });
      break;
    case PredicateOp::kLt:
      FillMask(row_begin, row_end, words,
               [&](size_t i) { return std::string_view(col[i]) < lit; });
      break;
    case PredicateOp::kLe:
      FillMask(row_begin, row_end, words,
               [&](size_t i) { return std::string_view(col[i]) <= lit; });
      break;
    case PredicateOp::kGt:
      FillMask(row_begin, row_end, words,
               [&](size_t i) { return std::string_view(col[i]) > lit; });
      break;
    case PredicateOp::kGe:
      FillMask(row_begin, row_end, words,
               [&](size_t i) { return std::string_view(col[i]) >= lit; });
      break;
    default:
      OSDP_CHECK_MSG(false, "bad comparison op");
  }
}

// Runs the typed fill loop over each contiguous chunk span of
// [row_begin, row_end) in local span coordinates. Span starts are always
// 64-aligned when row_begin is (chunk size is a multiple of 64), so each
// span writes whole disjoint words at offset (span_begin - row_begin) / 64
// and the packed bits land exactly where the flat whole-range loop would
// put them. `fill(data, len, span_words)` fills rows [0, len) of `data`
// into span_words.
template <typename ColT, typename Fill>
void FillPerSpan(const ColT& col, size_t row_begin, size_t row_end,
                 uint64_t* words, const Fill& fill) {
  col.ForEachSpan(row_begin, row_end,
                  [&](const auto* data, size_t span_begin, size_t len) {
                    OSDP_DCHECK(((span_begin - row_begin) & 63) == 0);
                    fill(data, len, words + ((span_begin - row_begin) >> 6));
                  });
}

// Evaluates `op` for rows [row_begin, row_end) into `words` (the word
// holding row `row_begin` first). All tail bits past row_end in the last
// word are written zero, matching RowMask's cleared-tail invariant when the
// range ends at the table boundary. Leaves scan chunk-by-chunk through
// FillPerSpan.
void EvalOp(const Op& op, const Table& table, size_t row_begin, size_t row_end,
            uint64_t* words) {
  const size_t n = row_end - row_begin;
  const size_t num_words = (n + 63) >> 6;
  const size_t tail = n & 63;
  switch (op.kind) {
    case Op::Kind::kConstTrue:
      for (size_t wi = 0; wi < num_words; ++wi) words[wi] = ~uint64_t{0};
      if (tail != 0) words[num_words - 1] = (uint64_t{1} << tail) - 1;
      return;
    case Op::Kind::kConstFalse:
      for (size_t wi = 0; wi < num_words; ++wi) words[wi] = 0;
      return;
    case Op::Kind::kAnd: {
      EvalOp(*op.left, table, row_begin, row_end, words);
      std::vector<uint64_t> rhs(num_words);
      EvalOp(*op.right, table, row_begin, row_end, rhs.data());
      for (size_t wi = 0; wi < num_words; ++wi) words[wi] &= rhs[wi];
      return;
    }
    case Op::Kind::kOr: {
      EvalOp(*op.left, table, row_begin, row_end, words);
      std::vector<uint64_t> rhs(num_words);
      EvalOp(*op.right, table, row_begin, row_end, rhs.data());
      for (size_t wi = 0; wi < num_words; ++wi) words[wi] |= rhs[wi];
      return;
    }
    case Op::Kind::kNot:
      EvalOp(*op.left, table, row_begin, row_end, words);
      for (size_t wi = 0; wi < num_words; ++wi) words[wi] = ~words[wi];
      if (tail != 0) words[num_words - 1] &= (uint64_t{1} << tail) - 1;
      return;
    case Op::Kind::kCmpNum:
      if (op.col_type == ValueType::kInt64) {
        FillPerSpan(table.Int64Column(op.col), row_begin, row_end, words,
                    [&](const int64_t* data, size_t len, uint64_t* w) {
                      FillNumCmp(op.cmp, data, 0, len, op.num_lit, w);
                    });
      } else {
        FillPerSpan(table.DoubleColumn(op.col), row_begin, row_end, words,
                    [&](const double* data, size_t len, uint64_t* w) {
                      FillNumCmp(op.cmp, data, 0, len, op.num_lit, w);
                    });
      }
      return;
    case Op::Kind::kCmpStr:
      FillPerSpan(table.StringColumn(op.col), row_begin, row_end, words,
                  [&](const std::string* data, size_t len, uint64_t* w) {
                    FillStrCmp(op.cmp, data, 0, len, op.str_lit, w);
                  });
      return;
    case Op::Kind::kInNum: {
      // IN lists are tiny in practice (policy categories); a linear scan over
      // the interned literal vector beats a hash/sort setup per evaluation.
      const std::vector<double>& set = op.num_set;
      auto member = [&](double v) {
        for (double s : set) {
          if (v == s) return true;
        }
        return false;
      };
      if (op.col_type == ValueType::kInt64) {
        FillPerSpan(table.Int64Column(op.col), row_begin, row_end, words,
                    [&](const int64_t* data, size_t len, uint64_t* w) {
                      FillMask(0, len, w, [&](size_t i) {
                        return member(static_cast<double>(data[i]));
                      });
                    });
      } else {
        FillPerSpan(table.DoubleColumn(op.col), row_begin, row_end, words,
                    [&](const double* data, size_t len, uint64_t* w) {
                      FillMask(0, len, w,
                               [&](size_t i) { return member(data[i]); });
                    });
      }
      return;
    }
    case Op::Kind::kInStr: {
      const std::vector<std::string>& set = op.str_set;
      auto member = [&](std::string_view v) {
        for (const std::string& s : set) {
          if (v == s) return true;
        }
        return false;
      };
      FillPerSpan(table.StringColumn(op.col), row_begin, row_end, words,
                  [&](const std::string* data, size_t len, uint64_t* w) {
                    FillMask(0, len, w, [&](size_t i) {
                      return member(std::string_view(data[i]));
                    });
                  });
      return;
    }
  }
  OSDP_CHECK_MSG(false, "corrupt compiled predicate");
}

// --------------------------------------------------------- fingerprinting ---
//
// The canonical encoding is an injective serialization of the compiled
// program after canonicalization: AND/OR chains are flattened and their legs
// sorted by encoding, IN lists are sorted and deduplicated. Every variable-
// length field is length-prefixed, every tag is distinct, and literals are
// encoded by exact bit pattern — so byte equality of two encodings is deep
// structural equality of the canonicalized programs, and near-miss pairs
// (different column id, comparison op, or typed constant) can never encode
// identically. tests/compiled_predicate_test.cc enumerates those pairs.

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void AppendDoubleBits(std::string* out, double d) {
  // Bit pattern, not value: injective (distinguishes 0.0 from -0.0 and every
  // NaN payload), at the harmless cost of treating such pairs as distinct
  // cache keys.
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  AppendU64(out, bits);
}

void AppendLengthPrefixed(std::string* out, const std::string& s) {
  AppendU64(out, s.size());
  out->append(s);
}

char CmpTag(PredicateOp op) {
  switch (op) {
    case PredicateOp::kEq: return '=';
    case PredicateOp::kNe: return '!';
    case PredicateOp::kLt: return '<';
    case PredicateOp::kLe: return 'l';
    case PredicateOp::kGt: return '>';
    case PredicateOp::kGe: return 'g';
    default: OSDP_CHECK_MSG(false, "bad comparison op"); return '?';
  }
}

char TypeTag(ValueType t) {
  switch (t) {
    case ValueType::kInt64: return 'I';
    case ValueType::kDouble: return 'D';
    case ValueType::kString: return 'S';
  }
  return '?';
}

// Collects the legs of a maximal same-kind AND/OR chain: And(a, And(b, c))
// and And(And(c, b), a) flatten to the same three legs.
void FlattenChain(const Op& op, Op::Kind kind, std::vector<const Op*>* legs) {
  if (op.kind == kind) {
    FlattenChain(*op.left, kind, legs);
    FlattenChain(*op.right, kind, legs);
  } else {
    legs->push_back(&op);
  }
}

std::string CanonicalEncode(const Op& op) {
  std::string out;
  switch (op.kind) {
    case Op::Kind::kConstTrue:
      return "T";
    case Op::Kind::kConstFalse:
      return "F";
    case Op::Kind::kCmpNum:
      out += 'n';
      out += CmpTag(op.cmp);
      AppendU64(&out, op.col);
      out += TypeTag(op.col_type);
      AppendDoubleBits(&out, op.num_lit);
      return out;
    case Op::Kind::kCmpStr:
      out += 's';
      out += CmpTag(op.cmp);
      AppendU64(&out, op.col);
      AppendLengthPrefixed(&out, op.str_lit);
      return out;
    case Op::Kind::kInNum: {
      // Membership is order- and multiplicity-insensitive, so the canonical
      // set is sorted by bit pattern and deduplicated (evaluation keeps the
      // original list; the mask is identical either way).
      std::vector<uint64_t> bits;
      bits.reserve(op.num_set.size());
      for (double d : op.num_set) {
        uint64_t b;
        std::memcpy(&b, &d, sizeof(b));
        bits.push_back(b);
      }
      std::sort(bits.begin(), bits.end());
      bits.erase(std::unique(bits.begin(), bits.end()), bits.end());
      out += 'i';
      AppendU64(&out, op.col);
      out += TypeTag(op.col_type);
      AppendU64(&out, bits.size());
      for (uint64_t b : bits) AppendU64(&out, b);
      return out;
    }
    case Op::Kind::kInStr: {
      std::vector<std::string> sorted = op.str_set;
      std::sort(sorted.begin(), sorted.end());
      sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
      out += 'j';
      AppendU64(&out, op.col);
      AppendU64(&out, sorted.size());
      for (const std::string& s : sorted) AppendLengthPrefixed(&out, s);
      return out;
    }
    case Op::Kind::kNot:
      out += '~';
      AppendLengthPrefixed(&out, CanonicalEncode(*op.left));
      return out;
    case Op::Kind::kAnd:
    case Op::Kind::kOr: {
      // Word-wise AND/OR is commutative and associative, so the mask of a
      // chain does not depend on leg order — canonicalize by flattening the
      // chain and sorting the encoded legs.
      std::vector<const Op*> legs;
      FlattenChain(op, op.kind, &legs);
      std::vector<std::string> encoded;
      encoded.reserve(legs.size());
      for (const Op* leg : legs) encoded.push_back(CanonicalEncode(*leg));
      std::sort(encoded.begin(), encoded.end());
      out += op.kind == Op::Kind::kAnd ? '&' : '|';
      AppendU64(&out, encoded.size());
      for (const std::string& leg : encoded) AppendLengthPrefixed(&out, leg);
      return out;
    }
  }
  OSDP_CHECK_MSG(false, "corrupt compiled predicate");
  return out;
}

// FNV-1a over the canonical bytes, finished with a SplitMix64 avalanche so
// near-identical encodings (one literal bit apart) spread over all 64 bits.
uint64_t HashCanonical(const std::string& canonical) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char c : canonical) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBULL;
  h ^= h >> 31;
  return h;
}

}  // namespace

Result<CompiledPredicate> CompiledPredicate::Compile(const Predicate& pred,
                                                     const Schema& schema) {
  OSDP_CHECK(pred.root() != nullptr);
  OSDP_ASSIGN_OR_RETURN(std::shared_ptr<const Op> root,
                        CompileNode(*pred.root(), schema));
  auto canonical = std::make_shared<const std::string>(CanonicalEncode(*root));
  const uint64_t fingerprint = HashCanonical(*canonical);
  return CompiledPredicate(schema, std::move(root), std::move(canonical),
                           fingerprint);
}

RowMask CompiledPredicate::EvalMask(const Table& table) const {
  RowMask out(table.num_rows());
  EvalRangeInto(table, 0, table.num_rows(), &out);
  return out;
}

void CompiledPredicate::EvalRangeInto(const Table& table, size_t row_begin,
                                      size_t row_end, RowMask* out) const {
  OSDP_CHECK_MSG(table.schema() == schema_,
                 "table schema differs from the compiled schema");
  OSDP_CHECK(out->size() == table.num_rows());
  OSDP_CHECK_MSG((row_begin & 63) == 0, "range start must be word-aligned");
  OSDP_CHECK_MSG(row_end == table.num_rows() || (row_end & 63) == 0,
                 "range end must be word-aligned or the table end");
  OSDP_CHECK(row_begin <= row_end && row_end <= table.num_rows());
  if (row_begin == row_end) return;
  EvalOp(*root_, table, row_begin, row_end,
         out->mutable_words() + (row_begin >> 6));
}

}  // namespace osdp
