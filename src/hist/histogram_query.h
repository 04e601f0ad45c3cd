// Histogram queries over the Table substrate: the paper's
//   SELECT group, COUNT(*) FROM table WHERE <condition> GROUP BY <keys>
// with zero and non-zero groups both reported (Section 5).
//
// The masked evaluators are the x_ns hot path: the WHERE clause is compiled
// once per call (CompiledPredicate), combined with the row mask word-wise,
// and the binning inner loop runs over the typed column view of the grouped
// column — no per-row name resolution or Value boxing.

#ifndef OSDP_HIST_HISTOGRAM_QUERY_H_
#define OSDP_HIST_HISTOGRAM_QUERY_H_

#include <memory>
#include <optional>
#include <string>

#include "src/common/result.h"
#include "src/data/compiled_predicate.h"
#include "src/data/predicate.h"
#include "src/data/row_mask.h"
#include "src/data/table.h"
#include "src/hist/domain.h"
#include "src/hist/histogram.h"

namespace osdp {

/// \brief A 1-D histogram query: bin `column` by `domain`, optionally
/// filtering rows by `where` first. An absent `where` is the TRUE clause.
struct HistogramQuery {
  std::string column;
  Domain1D domain;
  std::optional<Predicate> where;
};

/// \brief A HistogramQuery bound to a concrete table: grouped column
/// resolved to a typed pointer, WHERE clause compiled, query shape fully
/// validated. The batch evaluators (serial below, sharded in src/runtime/)
/// both execute through this, so "prepare errors" are identical on every
/// path and the per-shard work is a pure accumulation loop.
///
/// A prepared query borrows the table's column storage — it must not outlive
/// the table or survive a mutation. Immutable once built: AccumulateRange on
/// disjoint row ranges may run concurrently from many threads.
class PreparedHistogramQuery {
 public:
  /// Validates and binds `query` against `table`: NotFound for an unknown
  /// column, InvalidArgument for an unbinnable grouped column or an
  /// ill-typed WHERE — the same errors, in the same precedence, as the
  /// unprepared evaluators.
  static Result<PreparedHistogramQuery> Prepare(const Table& table,
                                                const HistogramQuery& query);

  /// Number of bins the query produces.
  size_t num_bins() const { return domain_.size(); }

  /// The binning, and the grouped column's index in the table's schema.
  const Domain1D& domain() const { return domain_; }
  size_t column_index() const { return column_index_; }

  /// The compiled WHERE clause; never null. A query with no WHERE clause
  /// gets the compiled Predicate::True().
  const CompiledPredicate* where() const { return where_.get(); }

  /// Adds 1 to `out`'s bin of every selected row in [row_begin, row_end):
  /// rows whose `mask` bit is set. `out` must have num_bins() bins; the
  /// WHERE clause is *not* applied here — pass its mask as `mask` or, with
  /// a second mask, to the two-mask overload below.
  void AccumulateRange(const RowMask& mask, size_t row_begin, size_t row_end,
                       Histogram* out) const;

  /// AccumulateRange over the rows set in both `mask` and `also` (equal
  /// sizes): the two masks are ANDed word by word inside the walk, so the
  /// counts equal those over a copy of `mask` ANDed with `also`.
  void AccumulateRange(const RowMask& mask, const RowMask& also,
                       size_t row_begin, size_t row_end, Histogram* out) const;

 private:
  PreparedHistogramQuery(Domain1D domain, size_t column_index)
      : domain_(std::move(domain)), column_index_(column_index) {}

  // Both AccumulateRange overloads: for_each_row(begin, end, fn) calls
  // fn(row) for every selected row of [begin, end) in ascending order.
  template <typename ForEachRow>
  void AccumulateRows(size_t row_begin, size_t row_end, Histogram* out,
                      const ForEachRow& for_each_row) const;

  // Exactly one of i64_/dbl_ is set (the grouped column's chunked storage;
  // AccumulateRange walks it span-by-span).
  const ChunkedColumn<int64_t>* i64_ = nullptr;
  const ChunkedColumn<double>* dbl_ = nullptr;
  bool categorical_ = false;
  Domain1D domain_;
  size_t column_index_ = 0;
  std::shared_ptr<const CompiledPredicate> where_;
};

/// Evaluates a 1-D histogram query over all rows of `table`.
Result<Histogram> ComputeHistogram(const Table& table,
                                   const HistogramQuery& query);

/// Evaluates the query over only the rows whose mask bit is set. `mask` must
/// have one bit per row. This is how OSDP mechanisms compute x_ns, the
/// histogram over non-sensitive records.
///
/// The query's shape (known columns, binnable column type, well-typed WHERE)
/// is validated up front, independent of how many rows the mask selects: a
/// malformed query errors even on an empty table or all-zero mask.
Result<Histogram> ComputeHistogramMasked(const Table& table,
                                         const HistogramQuery& query,
                                         const RowMask& mask);

}  // namespace osdp

#endif  // OSDP_HIST_HISTOGRAM_QUERY_H_
