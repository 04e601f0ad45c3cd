#include "src/hist/histogram_query.h"

#include "src/common/check.h"
#include "src/data/compiled_predicate.h"
#include "src/data/table_view.h"

namespace osdp {

namespace {

// Typed, pre-resolved binning column: the per-row type dispatch and name
// resolution, hoisted out of the scan.
struct Binner {
  const ChunkedColumn<int64_t>* i64 = nullptr;  // exactly one of i64/dbl set
  const ChunkedColumn<double>* dbl = nullptr;
  bool categorical = false;
};

Result<Binner> MakeBinner(const Table& table, size_t col_idx,
                          const Domain1D& domain) {
  const Field& field = table.schema().field(col_idx);
  Binner b;
  b.categorical = domain.is_categorical();
  switch (field.type) {
    case ValueType::kInt64:
      b.i64 = &table.Int64Column(col_idx);
      return b;
    case ValueType::kDouble:
      if (domain.is_categorical()) {
        return Status::InvalidArgument(
            "categorical domain over double column '" + field.name + "'");
      }
      b.dbl = &table.DoubleColumn(col_idx);
      return b;
    case ValueType::kString:
      return Status::InvalidArgument("cannot bin string column '" + field.name +
                                     "'");
  }
  return Status::Internal("unreachable");
}

}  // namespace

Result<PreparedHistogramQuery> PreparedHistogramQuery::Prepare(
    const Table& table, const HistogramQuery& query) {
  OSDP_ASSIGN_OR_RETURN(size_t col_idx,
                        table.schema().FieldIndex(query.column));
  OSDP_ASSIGN_OR_RETURN(Binner binner,
                        MakeBinner(table, col_idx, query.domain));
  PreparedHistogramQuery prepared(query.domain, col_idx);
  prepared.i64_ = binner.i64;
  prepared.dbl_ = binner.dbl;
  prepared.categorical_ = binner.categorical;
  // No WHERE clause is the TRUE clause: every caller then has one clause to
  // scan or look up, and an unfiltered query keys the TRUE cache entry.
  OSDP_ASSIGN_OR_RETURN(
      CompiledPredicate compiled,
      CompiledPredicate::Compile(query.where.value_or(Predicate::True()),
                                 table.schema()));
  prepared.where_ =
      std::make_shared<const CompiledPredicate>(std::move(compiled));
  return prepared;
}

template <typename ForEachRow>
void PreparedHistogramQuery::AccumulateRows(
    size_t row_begin, size_t row_end, Histogram* out,
    const ForEachRow& for_each_row) const {
  OSDP_CHECK(out->size() == domain_.size());
  std::vector<double>& counts = out->counts();
  // Walk the grouped column chunk-span by chunk-span so the inner loop
  // indexes one chunk's typed cells (an int64 chunk's offsets, at its own
  // width); the mask(s) drive which rows bin.
  // Accumulation order stays ascending-row, so the counts are identical to
  // a flat whole-range loop.
  if (i64_ != nullptr) {
    if (categorical_) {
      i64_->ForEachSpan(
          row_begin, row_end, [&](const auto& data, size_t gb, size_t len) {
            for_each_row(gb, gb + len, [&](size_t row) {
              counts[domain_.BinOfCategory(data[row - gb])] += 1.0;
            });
          });
    } else {
      i64_->ForEachSpan(
          row_begin, row_end, [&](const auto& data, size_t gb, size_t len) {
            for_each_row(gb, gb + len, [&](size_t row) {
              counts[domain_.BinOf(static_cast<double>(data[row - gb]))] += 1.0;
            });
          });
    }
  } else {
    dbl_->ForEachSpan(
        row_begin, row_end, [&](const double* data, size_t gb, size_t len) {
          for_each_row(gb, gb + len, [&](size_t row) {
            counts[domain_.BinOf(data[row - gb])] += 1.0;
          });
        });
  }
}

void PreparedHistogramQuery::AccumulateRange(const RowMask& mask,
                                             size_t row_begin, size_t row_end,
                                             Histogram* out) const {
  AccumulateRows(row_begin, row_end, out,
                 [&](size_t begin, size_t end, const auto& fn) {
                   mask.ForEachSetInRange(begin, end, fn);
                 });
}

void PreparedHistogramQuery::AccumulateRange(const RowMask& mask,
                                             const RowMask& also,
                                             size_t row_begin, size_t row_end,
                                             Histogram* out) const {
  AccumulateRows(row_begin, row_end, out,
                 [&](size_t begin, size_t end, const auto& fn) {
                   mask.ForEachSetInRange(also, begin, end, fn);
                 });
}

Result<Histogram> ComputeHistogram(const Table& table,
                                   const HistogramQuery& query) {
  return ComputeHistogramMasked(table, query,
                                RowMask(table.num_rows(), /*value=*/true));
}

Result<Histogram> ComputeHistogramMasked(const Table& table,
                                         const HistogramQuery& query,
                                         const RowMask& mask) {
  if (mask.size() != table.num_rows()) {
    return Status::InvalidArgument("mask size != table rows");
  }
  OSDP_ASSIGN_OR_RETURN(PreparedHistogramQuery prepared,
                        PreparedHistogramQuery::Prepare(table, query));

  Histogram out(prepared.num_bins());
  prepared.AccumulateRange(prepared.where()->EvalMask(table), mask, 0,
                           table.num_rows(), &out);
  return out;
}

}  // namespace osdp
