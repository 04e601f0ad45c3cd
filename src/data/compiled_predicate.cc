#include "src/data/compiled_predicate.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <optional>
#include <string_view>
#include <type_traits>
#include <utility>

#include "src/common/check.h"
#include "src/data/scan_kernels.h"

namespace osdp {

// The compiled program: the predicate tree with column indices resolved,
// each comparison specialized to the column's static type, and literals
// pre-converted (numerics widened to double — the reference evaluator's
// comparison semantics — strings interned in place). AND/OR chains are
// flattened into one n-ary node. Numeric comparisons, alone or as the legs
// of an AND, are additionally lowered into ScanLegs for the fused kernel
// (src/data/scan_kernels.h); the canonical encoding reads only the
// unlowered fields, so lowering can never change a cache key.
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
  // kAnd / kOr: two or more legs, none of the node's own kind (chains are
  // flattened). kNot: its one operand.
  std::vector<std::shared_ptr<const Op>> children;

  // The scan plan of a kCmpNum leaf or a kAnd node: the conjunction of
  // `legs` (fused into one kernel pass, leg k reading column leg_cols[k])
  // and of every node in `rest`, or all-false when `never` is set.
  std::vector<ScanLeg> legs;
  std::vector<size_t> leg_cols;
  std::vector<const Op*> rest;  // points into `children`
  bool never = false;
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

// ------------------------------------------------------ exact int leaves ---
//
// An int64 cell compares as double(v) <op> L (the reference CompareCell
// semantics). v ↦ double(v) is monotone non-decreasing — rounding to
// nearest preserves order — so for every literal L, NaN and ±inf included,
// the set {v : double(v) <op> L} is an interval of int64 for <, <=, >, >=
// and == (a preimage of a ray or a point), and the complement of one for !=.
// Compile() finds its ends by binary search on that map, and the scan tests
// membership exactly on the integers: no per-row cast, and bit-identical to
// the double compare.

constexpr uint64_t kSignBit = uint64_t{1} << 63;

// The int64 whose order rank among all int64 values is u (0 = INT64_MIN).
int64_t FromRank(uint64_t u) { return static_cast<int64_t>(u ^ kSignBit); }

// The least v with up(v), for `up` false-then-true over ascending int64;
// nullopt when up holds nowhere.
template <typename Pred>
std::optional<int64_t> FirstTrue(const Pred& up) {
  if (!up(std::numeric_limits<int64_t>::max())) return std::nullopt;
  uint64_t lo = 0;
  uint64_t hi = ~uint64_t{0};  // up(FromRank(hi)) holds
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (up(FromRank(mid))) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return FromRank(lo);
}

// The greatest v with down(v), for `down` true-then-false over ascending
// int64; nullopt when down holds nowhere.
template <typename Pred>
std::optional<int64_t> LastTrue(const Pred& down) {
  if (!down(std::numeric_limits<int64_t>::min())) return std::nullopt;
  const std::optional<int64_t> past =
      FirstTrue([&](int64_t v) { return !down(v); });
  if (!past) return std::numeric_limits<int64_t>::max();
  return *past - 1;  // *past > INT64_MIN, since down(INT64_MIN) holds
}

// {v : double(v) <cmp> lit} as a scan leg, or nullopt when it is empty.
std::optional<ScanLeg> IntLeg(PredicateOp cmp, double lit) {
  auto as_double = [](int64_t v) { return static_cast<double>(v); };
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  std::optional<int64_t> lo;
  std::optional<int64_t> hi;
  switch (cmp) {
    case PredicateOp::kGe:
      lo = FirstTrue([&](int64_t v) { return as_double(v) >= lit; });
      hi = kMax;
      break;
    case PredicateOp::kGt:
      lo = FirstTrue([&](int64_t v) { return as_double(v) > lit; });
      hi = kMax;
      break;
    case PredicateOp::kLe:
      lo = kMin;
      hi = LastTrue([&](int64_t v) { return as_double(v) <= lit; });
      break;
    case PredicateOp::kLt:
      lo = kMin;
      hi = LastTrue([&](int64_t v) { return as_double(v) < lit; });
      break;
    case PredicateOp::kEq:
    case PredicateOp::kNe:
      lo = FirstTrue([&](int64_t v) { return as_double(v) >= lit; });
      hi = LastTrue([&](int64_t v) { return as_double(v) <= lit; });
      break;
    default:
      OSDP_CHECK_MSG(false, "bad comparison op");
  }
  const bool empty = !lo || !hi || *lo > *hi;
  ScanLeg leg;
  if (cmp != PredicateOp::kNe) {
    if (empty) return std::nullopt;
    leg.lo = static_cast<uint64_t>(*lo);
    leg.span = static_cast<uint64_t>(*hi) - leg.lo;
    return leg;
  }
  // !=: every int64 when no v equals lit; otherwise the complement of
  // [lo, hi], which is the wrapped interval [hi + 1, lo - 1] — empty only
  // if [lo, hi] were every int64, which no double's preimage is.
  if (empty) {
    leg.lo = static_cast<uint64_t>(kMin);
    leg.span = ~uint64_t{0};
    return leg;
  }
  OSDP_CHECK(!(*lo == kMin && *hi == kMax));
  leg.lo = static_cast<uint64_t>(*hi) + 1;
  leg.span = static_cast<uint64_t>(*lo) - 1 - leg.lo;
  return leg;
}

// Signed ends of an int leg that does not wrap past INT64_MAX.
std::optional<std::pair<int64_t, int64_t>> PlainRange(const ScanLeg& leg) {
  const auto lo = static_cast<int64_t>(leg.lo);
  const auto hi = static_cast<int64_t>(leg.lo + leg.span);
  if (lo > hi) return std::nullopt;
  return std::make_pair(lo, hi);
}

// ---------------------------------------------------------------- compile ---

// Plans a kAnd node: its numeric legs fuse into one kernel pass (ranges on
// one int column intersected into a single leg), everything else — and any
// numeric leg past kMaxFusedLegs — is evaluated on its own and ANDed in.
void PlanConjunction(Op* op) {
  for (const std::shared_ptr<const Op>& child : op->children) {
    if (child->kind != Op::Kind::kCmpNum) {
      op->rest.push_back(child.get());
      continue;
    }
    if (child->never) {
      op->never = true;
      continue;
    }
    const ScanLeg& leg = child->legs[0];
    bool merged = false;
    if (leg.cells == LegCells::kU64) {
      if (const auto range = PlainRange(leg)) {
        for (size_t k = 0; k < op->legs.size() && !merged; ++k) {
          if (op->leg_cols[k] != child->col ||
              op->legs[k].cells != LegCells::kU64) {
            continue;
          }
          const auto other = PlainRange(op->legs[k]);
          if (!other) continue;
          const int64_t lo = std::max(range->first, other->first);
          const int64_t hi = std::min(range->second, other->second);
          if (lo > hi) {
            op->never = true;
          } else {
            op->legs[k].lo = static_cast<uint64_t>(lo);
            op->legs[k].span = static_cast<uint64_t>(hi) - op->legs[k].lo;
          }
          merged = true;
        }
      }
    }
    if (merged) continue;
    if (op->legs.size() < kMaxFusedLegs) {
      op->legs.push_back(leg);
      op->leg_cols.push_back(child->col);
    } else {
      op->rest.push_back(child.get());
    }
  }
}

// Collects the operands of the maximal `kind` chain rooted at `n`:
// And(a, And(b, c)) and And(And(a, b), c) both give a, b, c.
void FlattenChain(const Predicate::Node& n, PredicateOp kind,
                  std::vector<const Predicate::Node*>* legs) {
  if (n.op == kind) {
    FlattenChain(*n.left, kind, legs);
    FlattenChain(*n.right, kind, legs);
  } else {
    legs->push_back(&n);
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
      std::vector<const Predicate::Node*> legs;
      FlattenChain(n, n.op, &legs);
      for (const Predicate::Node* leg : legs) {
        OSDP_ASSIGN_OR_RETURN(std::shared_ptr<const Op> child,
                              CompileNode(*leg, schema));
        op->children.push_back(std::move(child));
      }
      if (op->kind == Op::Kind::kAnd) PlanConjunction(op.get());
      return std::shared_ptr<const Op>(op);
    }
    case PredicateOp::kNot: {
      op->kind = Op::Kind::kNot;
      OSDP_ASSIGN_OR_RETURN(std::shared_ptr<const Op> operand,
                            CompileNode(*n.left, schema));
      op->children.push_back(std::move(operand));
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
  if (str_col) {
    op->kind = Op::Kind::kCmpStr;
    op->str_lit = n.literals[0].AsString();
    return std::shared_ptr<const Op>(op);
  }
  op->kind = Op::Kind::kCmpNum;
  op->num_lit = n.literals[0].AsNumeric();
  ScanLeg leg;
  if (op->col_type == ValueType::kInt64) {
    const std::optional<ScanLeg> range = IntLeg(op->cmp, op->num_lit);
    if (!range) {
      op->never = true;
      return std::shared_ptr<const Op>(op);
    }
    leg = *range;
  } else {
    leg.cells = LegCells::kDouble;
    leg.cmp = op->cmp;
    leg.lit = op->num_lit;
  }
  op->legs.push_back(leg);
  op->leg_cols.push_back(op->col);
  return std::shared_ptr<const Op>(op);
}

// ------------------------------------------------------------------- scan ---
//
// EvalRangeInto walks its range one block at a time: a block is the part of
// [row_begin, row_end) inside one storage chunk, so every column's cells
// for the block are one contiguous array (an int64 column's at the chunk's
// offset width) and the block covers at most kBlockWords mask words. The
// whole tree is evaluated over one block before the next, and an AND or OR
// combines its operands through one stack buffer of kBlockWords — no
// per-node heap vector. Blocks start at a chunk boundary
// or at row_begin, both multiples of 64, so each block writes whole,
// disjoint words and the packing is identical to a whole-table scan — the
// invariant behind serial/sharded bit-identity.

constexpr size_t kBlockWords = kChunkRows / 64;

struct Block {
  const Table& table;
  size_t begin;  // first row; the block lies within one chunk
  size_t rows;   // 1 <= rows <= kChunkRows
};

// Packs fn(i) for i in [0, n) into `words`, 64 bits at a time; tail bits
// past n are zero. fn must be pure.
template <typename Fn>
void FillMask(size_t n, uint64_t* words, const Fn& fn) {
  const size_t full_words = n >> 6;
  for (size_t wi = 0; wi < full_words; ++wi) {
    const size_t base = wi << 6;
    uint64_t w = 0;
    for (size_t b = 0; b < 64; ++b) {
      w |= static_cast<uint64_t>(fn(base + b) ? 1 : 0) << b;
    }
    words[wi] = w;
  }
  if (n & 63) {
    uint64_t w = 0;
    for (size_t i = full_words << 6; i < n; ++i) {
      w |= static_cast<uint64_t>(fn(i) ? 1 : 0) << (i & 63);
    }
    words[full_words] = w;
  }
}

void FillStrCmp(PredicateOp cmp, const std::string* col, size_t n,
                std::string_view lit, uint64_t* words) {
  switch (cmp) {
    case PredicateOp::kEq:
      FillMask(n, words,
               [&](size_t i) { return std::string_view(col[i]) == lit; });
      break;
    case PredicateOp::kNe:
      FillMask(n, words,
               [&](size_t i) { return std::string_view(col[i]) != lit; });
      break;
    case PredicateOp::kLt:
      FillMask(n, words,
               [&](size_t i) { return std::string_view(col[i]) < lit; });
      break;
    case PredicateOp::kLe:
      FillMask(n, words,
               [&](size_t i) { return std::string_view(col[i]) <= lit; });
      break;
    case PredicateOp::kGt:
      FillMask(n, words,
               [&](size_t i) { return std::string_view(col[i]) > lit; });
      break;
    case PredicateOp::kGe:
      FillMask(n, words,
               [&](size_t i) { return std::string_view(col[i]) >= lit; });
      break;
    default:
      OSDP_CHECK_MSG(false, "bad comparison op");
  }
}

void EvalBlock(const Op& op, const Block& blk, uint64_t* words);

// Evaluates each operand in [first, last) and folds it into words with
// `combine`.
template <typename It, typename Combine>
void FoldInto(It first, It last, const Block& blk, uint64_t* words,
              const Combine& combine) {
  const size_t num_words = (blk.rows + 63) >> 6;
  uint64_t operand[kBlockWords];
  for (; first != last; ++first) {
    EvalBlock(**first, blk, operand);
    for (size_t wi = 0; wi < num_words; ++wi) {
      words[wi] = combine(words[wi], operand[wi]);
    }
  }
}

// Writes words[0, ceil(n / 64)) with bits [0, n) set and the rest clear.
void FillOnes(size_t n, uint64_t* words) {
  const size_t num_words = (n + 63) >> 6;
  std::fill(words, words + num_words, ~uint64_t{0});
  if (const size_t tail = n & 63; tail != 0) {
    words[num_words - 1] = (uint64_t{1} << tail) - 1;
  }
}

// A kCmpNum leaf or a kAnd node: the fused legs, then each other operand.
// Each int leg is first rebased onto the block's chunk: a leg every cell of
// the chunk passes is dropped, and one no cell passes clears the block, so
// neither reads the chunk.
void EvalConjunction(const Op& op, const Block& blk, uint64_t* words) {
  const size_t num_words = (blk.rows + 63) >> 6;
  bool none = op.never;
  ScanLeg legs[kMaxFusedLegs];
  const void* cells[kMaxFusedLegs];
  size_t live = 0;
  for (size_t k = 0; k < op.legs.size() && !none; ++k) {
    const size_t col = op.leg_cols[k];
    if (op.legs[k].cells == LegCells::kDouble) {
      legs[live] = op.legs[k];
      cells[live++] = &blk.table.DoubleColumn(col)[blk.begin];
      continue;
    }
    blk.table.Int64Column(col).ForEachSpan(
        blk.begin, blk.begin + blk.rows,
        [&](const auto& chunk, size_t /*begin*/, size_t /*len*/) {
          using U = typename std::decay_t<decltype(chunk)>::Offset;
          switch (RebaseLeg(op.legs[k], chunk.base, chunk.range,
                            LegCellsOf<U>(), &legs[live])) {
            case LegOnChunk::kNone:
              none = true;
              return;
            case LegOnChunk::kAll:
              return;
            case LegOnChunk::kTest:
              cells[live++] = chunk.offsets;
              return;
          }
        });
  }
  if (none) {
    std::fill(words, words + num_words, uint64_t{0});
    return;
  }
  size_t done = 0;
  if (live > 0) {
    FusedAndMask(legs, cells, live, blk.rows, words);
  } else if (!op.rest.empty()) {
    EvalBlock(*op.rest[0], blk, words);
    done = 1;
  } else {
    FillOnes(blk.rows, words);
  }
  FoldInto(op.rest.begin() + done, op.rest.end(), blk, words,
           [](uint64_t a, uint64_t b) { return a & b; });
}

// Evaluates `op` over one block into words[0, ceil(rows / 64)); bits past
// the block's last row in the last word are written zero, matching
// RowMask's cleared-tail invariant when the block ends the table.
void EvalBlock(const Op& op, const Block& blk, uint64_t* words) {
  const size_t n = blk.rows;
  const size_t num_words = (n + 63) >> 6;
  const size_t tail = n & 63;
  switch (op.kind) {
    case Op::Kind::kConstTrue:
      FillOnes(n, words);
      return;
    case Op::Kind::kConstFalse:
      std::fill(words, words + num_words, uint64_t{0});
      return;
    case Op::Kind::kCmpNum:
    case Op::Kind::kAnd:
      EvalConjunction(op, blk, words);
      return;
    case Op::Kind::kOr:
      EvalBlock(*op.children[0], blk, words);
      FoldInto(op.children.begin() + 1, op.children.end(), blk, words,
               [](uint64_t a, uint64_t b) { return a | b; });
      return;
    case Op::Kind::kNot:
      EvalBlock(*op.children[0], blk, words);
      for (size_t wi = 0; wi < num_words; ++wi) words[wi] = ~words[wi];
      if (tail != 0) words[num_words - 1] &= (uint64_t{1} << tail) - 1;
      return;
    case Op::Kind::kCmpStr:
      FillStrCmp(op.cmp, &blk.table.StringColumn(op.col)[blk.begin], n,
                 op.str_lit, words);
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
        blk.table.Int64Column(op.col).ForEachSpan(
            blk.begin, blk.begin + n,
            [&](const auto& cells, size_t /*begin*/, size_t /*len*/) {
              FillMask(n, words, [&](size_t i) {
                return member(static_cast<double>(cells[i]));
              });
            });
      } else {
        const double* data = &blk.table.DoubleColumn(op.col)[blk.begin];
        FillMask(n, words, [&](size_t i) { return member(data[i]); });
      }
      return;
    }
    case Op::Kind::kInStr: {
      const std::vector<std::string>& set = op.str_set;
      const std::string* data = &blk.table.StringColumn(op.col)[blk.begin];
      FillMask(n, words, [&](size_t i) {
        const std::string_view v(data[i]);
        for (const std::string& s : set) {
          if (v == s) return true;
        }
        return false;
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
      AppendLengthPrefixed(&out, CanonicalEncode(*op.children[0]));
      return out;
    case Op::Kind::kAnd:
    case Op::Kind::kOr: {
      // Word-wise AND/OR is commutative and associative, so the mask of a
      // chain does not depend on leg order — canonicalize by sorting the
      // encoded legs of the chain, which Compile() already flattened.
      std::vector<std::string> encoded;
      encoded.reserve(op.children.size());
      for (const auto& leg : op.children) {
        encoded.push_back(CanonicalEncode(*leg));
      }
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
  EvalRangeInto({this}, table, row_begin, row_end, {out});
}

void CompiledPredicate::EvalRangeInto(
    const std::vector<const CompiledPredicate*>& preds, const Table& table,
    size_t row_begin, size_t row_end, const std::vector<RowMask*>& outs) {
  OSDP_CHECK(preds.size() == outs.size());
  for (size_t i = 0; i < preds.size(); ++i) {
    OSDP_CHECK_MSG(table.schema() == preds[i]->schema_,
                   "table schema differs from the compiled schema");
    OSDP_CHECK(outs[i]->size() == table.num_rows());
  }
  OSDP_CHECK_MSG((row_begin & 63) == 0, "range start must be word-aligned");
  OSDP_CHECK_MSG(row_end == table.num_rows() || (row_end & 63) == 0,
                 "range end must be word-aligned or the table end");
  OSDP_CHECK(row_begin <= row_end && row_end <= table.num_rows());
  // Chunk first, then predicate: a chunk's cells are read from memory by the
  // first predicate and are still in L1/L2 for the rest.
  for (size_t begin = row_begin; begin < row_end;) {
    const size_t end =
        std::min(row_end, (begin & ~kChunkRowMask) + kChunkRows);
    const Block blk{table, begin, end - begin};
    for (size_t i = 0; i < preds.size(); ++i) {
      EvalBlock(*preds[i]->root_, blk,
                outs[i]->MutableBlock(begin >> kChunkRowShift) +
                    ((begin & kChunkRowMask) >> 6));
    }
    begin = end;
  }
}

}  // namespace osdp
