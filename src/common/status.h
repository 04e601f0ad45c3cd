// Status: lightweight error propagation for the OSDP library.
//
// Library code does not throw exceptions (RocksDB/Arrow idiom). Fallible
// operations return Status, or Result<T> (see result.h) when they produce a
// value. Programming errors (contract violations) use OSDP_DCHECK instead.

#ifndef OSDP_COMMON_STATUS_H_
#define OSDP_COMMON_STATUS_H_

#include <ostream>
#include <string>
#include <utility>

namespace osdp {

/// Machine-readable classification of an error. Traces store a code as an
/// int, so a code keeps its value; removed codes leave gaps (4, 7, 9).
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kOutOfRange = 2,
  kNotFound = 3,
  kFailedPrecondition = 5,
  kBudgetExhausted = 6,  ///< privacy budget accounting refused the operation
  kInternal = 8,
  kIOError = 10,
  kResourceExhausted = 11,  ///< admission control shed the request (overload)
  kDeadlineExceeded = 12,   ///< the request's deadline passed before release
  kCancelled = 13,          ///< the caller cancelled the request cooperatively
};

/// \brief Human-readable name of a StatusCode ("OK", "Invalid argument", ...).
const char* StatusCodeToString(StatusCode code);

/// \brief Result of an operation that can fail but returns no value.
///
/// A Status is either OK (the default) or carries a code and a message.
/// Statuses are cheap to copy (OK carries no allocation in the common path is
/// not attempted here for simplicity; the string is empty for OK).
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs a status with the given code and message.
  Status(StatusCode code, std::string msg) : code_(code), msg_(std::move(msg)) {}

  /// \name Named constructors, one per StatusCode.
  /// @{
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status BudgetExhausted(std::string msg) {
    return Status(StatusCode::kBudgetExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  /// @}

  /// True iff the status is OK.
  bool ok() const { return code_ == StatusCode::kOk; }
  /// The status code.
  StatusCode code() const { return code_; }
  /// The error message; empty for OK statuses.
  const std::string& message() const { return msg_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && msg_ == other.msg_;
  }

 private:
  StatusCode code_;
  std::string msg_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

}  // namespace osdp

/// Propagates a non-OK Status to the caller.
#define OSDP_RETURN_IF_ERROR(expr)                  \
  do {                                              \
    ::osdp::Status _osdp_status = (expr);           \
    if (!_osdp_status.ok()) return _osdp_status;    \
  } while (0)

#endif  // OSDP_COMMON_STATUS_H_
