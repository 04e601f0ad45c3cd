// Result<T>: value-or-Status, the library's fallible return type.

#ifndef OSDP_COMMON_RESULT_H_
#define OSDP_COMMON_RESULT_H_

#include <cstdlib>
#include <iostream>
#include <optional>
#include <utility>

#include "src/common/status.h"

namespace osdp {

/// \brief Holds either a value of type T or a non-OK Status.
///
/// Usage:
/// \code
///   Result<Histogram> r = Histogram::FromCounts(counts);
///   if (!r.ok()) return r.status();
///   Histogram h = std::move(r).ValueOrDie();
/// \endcode
template <typename T>
class Result {
 public:
  /// Constructs from a value (implicit by design, mirrors Arrow).
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Constructs from a non-OK status. Aborts if the status is OK, because a
  /// Result must carry exactly one of {value, error}.
  Result(Status status) : status_(std::move(status)) {  // NOLINT(runtime/explicit)
    if (status_.ok()) {
      std::cerr << "Result constructed from OK status\n";
      std::abort();
    }
  }

  /// True iff a value is present.
  bool ok() const { return value_.has_value(); }

  /// The status: OK when a value is present.
  const Status& status() const {
    static const Status kOk = Status::OK();
    return ok() ? kOk : status_;
  }

  /// Returns the value; aborts with the error message if not ok().
  const T& ValueOrDie() const& {
    DieIfError();
    return *value_;
  }
  T& ValueOrDie() & {
    DieIfError();
    return *value_;
  }
  T&& ValueOrDie() && {
    DieIfError();
    return std::move(*value_);
  }

  /// Alias for ValueOrDie (Arrow naming).
  const T& operator*() const& { return ValueOrDie(); }
  T& operator*() & { return ValueOrDie(); }
  T&& operator*() && { return std::move(*this).ValueOrDie(); }
  const T* operator->() const { return &ValueOrDie(); }
  T* operator->() { return &ValueOrDie(); }

 private:
  void DieIfError() const {
    if (!ok()) {
      std::cerr << "Result::ValueOrDie on error: " << status_.ToString() << "\n";
      std::abort();
    }
  }

  std::optional<T> value_;
  Status status_ = Status::OK();
};

}  // namespace osdp

/// Assigns the value of a Result expression to `lhs`, or propagates the error.
#define OSDP_ASSIGN_OR_RETURN(lhs, expr)                 \
  OSDP_ASSIGN_OR_RETURN_IMPL(                            \
      OSDP_CONCAT_NAME(_osdp_result_, __LINE__), lhs, expr)

#define OSDP_CONCAT_NAME_INNER(x, y) x##y
#define OSDP_CONCAT_NAME(x, y) OSDP_CONCAT_NAME_INNER(x, y)

#define OSDP_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                               \
  if (!tmp.ok()) return tmp.status();              \
  lhs = std::move(tmp).ValueOrDie();

#endif  // OSDP_COMMON_RESULT_H_
