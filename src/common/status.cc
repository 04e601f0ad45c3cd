#include "src/common/status.h"

namespace osdp {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "Invalid argument";
    case StatusCode::kOutOfRange:
      return "Out of range";
    case StatusCode::kNotFound:
      return "Not found";
    case StatusCode::kFailedPrecondition:
      return "Failed precondition";
    case StatusCode::kBudgetExhausted:
      return "Budget exhausted";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kIOError:
      return "IO error";
    case StatusCode::kResourceExhausted:
      return "Resource exhausted";
    case StatusCode::kDeadlineExceeded:
      return "Deadline exceeded";
    case StatusCode::kCancelled:
      return "Cancelled";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeToString(code_);
  if (!msg_.empty()) {
    out += ": ";
    out += msg_;
  }
  return out;
}

}  // namespace osdp
