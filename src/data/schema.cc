#include "src/data/schema.h"

#include <unordered_set>

#include "src/common/check.h"

namespace osdp {

Schema::Schema(std::vector<Field> fields) : fields_(std::move(fields)) {
  std::unordered_set<std::string> seen;
  for (const Field& f : fields_) {
    OSDP_CHECK_MSG(seen.insert(f.name).second,
                   "duplicate column name: " << f.name);
  }
}

Result<size_t> Schema::FieldIndex(const std::string& name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return i;
  }
  return Status::NotFound("no column named '" + name + "'");
}

std::string Schema::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i) out += ", ";
    out += fields_[i].name;
    out += ":";
    out += ValueTypeToString(fields_[i].type);
  }
  out += ")";
  return out;
}

}  // namespace osdp
