// Schema: ordered, named, typed columns of a Table.

#ifndef OSDP_DATA_SCHEMA_H_
#define OSDP_DATA_SCHEMA_H_

#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/data/value.h"

namespace osdp {

/// A single named, typed column descriptor.
struct Field {
  std::string name;
  ValueType type;

  bool operator==(const Field& other) const {
    return name == other.name && type == other.type;
  }
};

/// \brief Ordered collection of fields; immutable once constructed.
class Schema {
 public:
  Schema() = default;
  /// Builds from fields; duplicate names are a contract violation.
  explicit Schema(std::vector<Field> fields);

  /// Number of columns.
  size_t num_fields() const { return fields_.size(); }
  /// Field at position i.
  const Field& field(size_t i) const { return fields_[i]; }
  /// All fields in order.
  const std::vector<Field>& fields() const { return fields_; }

  /// Index of the column with the given name, or NotFound.
  Result<size_t> FieldIndex(const std::string& name) const;

  bool operator==(const Schema& other) const { return fields_ == other.fields_; }

  /// "(name:type, ...)" rendering.
  std::string ToString() const;

 private:
  std::vector<Field> fields_;
};

}  // namespace osdp

#endif  // OSDP_DATA_SCHEMA_H_
