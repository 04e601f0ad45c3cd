// CompiledPredicate: a Predicate bound once against a Schema and evaluated
// column-at-a-time over a whole Table into a RowMask.
//
// A row-at-a-time evaluator re-resolves column names by string and
// dispatches through the expression tree for every row. Compile() does all of
// that exactly once — column indices resolved, comparisons specialized to the
// column's static type, string literals interned next to the node — so
// evaluation is a handful of tight typed loops over the columnar storage:
//
//   OSDP_ASSIGN_OR_RETURN(CompiledPredicate cp,
//                         CompiledPredicate::Compile(pred, table.schema()));
//   RowMask mask = cp.EvalMask(table);         // one bit per row
//   size_t matching = mask.Count();
//
// Evaluation runs one storage chunk (at most kChunkRows rows) at a time:
// the whole tree over one chunk, through stack buffers, before the next.
// Numeric comparisons, alone or as the legs of an AND chain, run through
// the fused kernel of src/data/scan_kernels.h: one pass per chunk for the
// whole chain, on the AVX-512 body when the CPU has AVX-512 F/BW/VL, else
// on the AVX2 body when it has AVX2, else on the portable body. An int leg
// reads a sealed chunk's frame-of-reference offsets at the chunk's own
// width, rebased per chunk (RebaseLeg); a leg that misses or covers the
// chunk's [min, max] does not read it at all.
//
// Semantics are bit-identical to the row-at-a-time reference evaluator in
// tests/reference_predicate.h: numeric cells compare with the literal as
// doubles, strings lexicographically. An int64 column gets that result
// without converting a cell: Compile() turns each comparison into the exact
// set of int64 values v with double(v) <op> L — an interval, or the
// complement of one for != — so NaN, ±inf, -0.0 and literals where doubles
// are sparser than integers (|L| >= 2^53) all match the double compare. tests/compiled_predicate_test.cc enforces the
// equivalence on randomized schemas, tables, and trees and on those literal
// edges. The one deliberate difference: a predicate that is ill-typed for
// the schema (unknown column, string/numeric mix) is rejected by Compile()
// with a Status, where the reference evaluator aborts mid-scan — or, when
// short-circuiting or an empty table keeps the bad leaf unreached, never
// notices at all. Compilation type-checks the whole tree unconditionally.

#ifndef OSDP_DATA_COMPILED_PREDICATE_H_
#define OSDP_DATA_COMPILED_PREDICATE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/data/predicate.h"
#include "src/data/row_mask.h"
#include "src/data/schema.h"
#include "src/data/table.h"

namespace osdp {

/// \brief A schema-bound, type-specialized predicate evaluated in batch.
/// Cheap to copy (shared immutable program).
class CompiledPredicate {
 public:
  /// Binds `pred` against `schema`: resolves every column reference,
  /// type-checks every comparison, interns literals. Errors with NotFound for
  /// unknown columns and InvalidArgument for string/numeric type mixes.
  static Result<CompiledPredicate> Compile(const Predicate& pred,
                                           const Schema& schema);

  /// The schema this predicate was compiled against.
  const Schema& schema() const { return schema_; }

  /// \brief 64-bit canonical structural fingerprint of the compiled program,
  /// computed once at Compile().
  ///
  /// Two compilations of the same predicate — or of predicates that differ
  /// only in the parse order of commutative AND/OR legs (And(a, b) vs
  /// And(b, a), any re-association of an AND/OR chain) or in the order and
  /// multiplicity of IN-list literals — fingerprint identically; their masks
  /// are bit-identical too, because word-wise AND/OR and set membership are
  /// order-insensitive. Distinct column ids, comparison ops, and typed
  /// constants (Int 1 vs String "1") always canonicalize differently.
  ///
  /// The fingerprint is a hash and may collide; exact callers (the runtime
  /// MaskCache) confirm candidates with shared_canonical_key(), whose byte
  /// equality is deep structural equality of the canonicalized programs. Column
  /// references are encoded by resolved index + type, so fingerprints are
  /// only comparable between predicates compiled against the same schema.
  uint64_t Fingerprint() const { return fingerprint_; }

  /// The canonical encoding behind Fingerprint(): an injective serialization
  /// of the canonicalized program. Shared and immutable, so cache keys built
  /// from it never copy the bytes and may outlive this CompiledPredicate.
  const std::shared_ptr<const std::string>& shared_canonical_key() const {
    return canonical_;
  }

  /// Evaluates over every row of `table` (whose schema must equal the bound
  /// schema) and returns the match bitmap.
  RowMask EvalMask(const Table& table) const;

  /// \brief Evaluates only rows [row_begin, row_end) into the corresponding
  /// bits of `out` (sized table.num_rows()), leaving all other words of the
  /// mask untouched.
  ///
  /// `row_begin` must be a multiple of 64 and `row_end` either a multiple of
  /// 64 or exactly table.num_rows(), so the range covers whole 64-bit words
  /// of the mask. Disjoint word-aligned ranges therefore write disjoint
  /// words, which is what makes sharded evaluation (src/runtime/) safe with
  /// no synchronization — once RowMask::PrepareWrite has made the whole
  /// range writable — and bit-identical to the serial scan: the per-word
  /// bit packing is the same computation either way. Each chunk's words go
  /// into its own mask block (RowMask::MutableBlock).
  void EvalRangeInto(const Table& table, size_t row_begin, size_t row_end,
                     RowMask* out) const;

  /// \brief EvalRangeInto for many predicates in one pass: preds[i] writes
  /// outs[i], under the same range rules. The range is walked one storage
  /// chunk at a time and every predicate is evaluated over a chunk before
  /// the next, so a chunk's cells are read from memory once for all of them.
  /// Each predicate's words are the ones its own EvalRangeInto writes; the
  /// one-predicate form is this with n = 1.
  static void EvalRangeInto(const std::vector<const CompiledPredicate*>& preds,
                            const Table& table, size_t row_begin,
                            size_t row_end, const std::vector<RowMask*>& outs);

  /// Compiled program node; public only for the implementation.
  struct Op;

 private:
  CompiledPredicate(Schema schema, std::shared_ptr<const Op> root,
                    std::shared_ptr<const std::string> canonical,
                    uint64_t fingerprint)
      : schema_(std::move(schema)),
        root_(std::move(root)),
        canonical_(std::move(canonical)),
        fingerprint_(fingerprint) {}

  Schema schema_;
  std::shared_ptr<const Op> root_;
  std::shared_ptr<const std::string> canonical_;
  uint64_t fingerprint_ = 0;
};

}  // namespace osdp

#endif  // OSDP_DATA_COMPILED_PREDICATE_H_
