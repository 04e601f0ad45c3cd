// Value: the dynamic cell type of the record/table substrate.

#ifndef OSDP_DATA_VALUE_H_
#define OSDP_DATA_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

namespace osdp {

/// Column/value types supported by the table substrate.
enum class ValueType {
  kInt64 = 0,
  kDouble = 1,
  kString = 2,
};

/// \brief Name of a ValueType ("int64", "double", "string").
const char* ValueTypeToString(ValueType t);

/// \brief A dynamically-typed cell value.
///
/// Used at API boundaries (predicates, record construction); hot loops go
/// through the typed columnar accessors on Table instead.
class Value {
 public:
  Value() : v_(int64_t{0}) {}
  Value(int64_t v) : v_(v) {}                   // NOLINT(runtime/explicit)
  Value(int v) : v_(int64_t{v}) {}              // NOLINT(runtime/explicit)
  Value(double v) : v_(v) {}                    // NOLINT(runtime/explicit)
  Value(std::string v) : v_(std::move(v)) {}    // NOLINT(runtime/explicit)
  Value(const char* v) : v_(std::string(v)) {}  // NOLINT(runtime/explicit)

  /// The dynamic type of this value.
  ValueType type() const {
    return static_cast<ValueType>(v_.index());
  }

  bool is_int64() const { return type() == ValueType::kInt64; }
  bool is_string() const { return type() == ValueType::kString; }

  /// Typed accessors; abort on type mismatch (programming error).
  int64_t AsInt64() const { return std::get<int64_t>(v_); }
  double AsDouble() const { return std::get<double>(v_); }
  const std::string& AsString() const { return std::get<std::string>(v_); }

  /// Numeric view: int64 widened to double; aborts for strings.
  double AsNumeric() const {
    return is_int64() ? static_cast<double>(AsInt64()) : AsDouble();
  }

  bool operator==(const Value& other) const { return v_ == other.v_; }
  bool operator!=(const Value& other) const { return v_ != other.v_; }

  /// Total order within a type; cross-type comparison orders by type index.
  bool operator<(const Value& other) const { return v_ < other.v_; }

  /// Debug rendering ("42", "3.14", "\"abc\"").
  std::string ToString() const;

 private:
  std::variant<int64_t, double, std::string> v_;
};

}  // namespace osdp

#endif  // OSDP_DATA_VALUE_H_
