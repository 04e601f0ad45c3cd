// Truman and non-Truman access-control query answering (Rizvi et al.),
// the strawmen of the paper's introduction: both leak through exclusion
// attacks because the *absence* of an answer is correlated with the record's
// sensitive value (the "locate Bob in the smoker's lounge" example).

#ifndef OSDP_ACCESSCONTROL_ACCESS_CONTROL_H_
#define OSDP_ACCESSCONTROL_ACCESS_CONTROL_H_

#include <optional>
#include <string>
#include <utility>

#include "src/common/result.h"
#include "src/data/predicate.h"
#include "src/data/row_mask.h"
#include "src/data/table.h"
#include "src/policy/policy.h"

namespace osdp {

/// How unauthorized data is handled.
enum class AccessControlModel {
  kTruman = 0,     ///< queries silently rewritten against the authorized view
  kNonTruman = 1,  ///< queries touching unauthorized data are rejected
};

/// Outcome of an access-controlled query.
struct AccessControlResponse {
  enum class Kind {
    kAnswer = 0,    ///< rows returned (possibly a restricted view)
    kEmpty = 1,     ///< Truman: nothing visible in the authorized view
    kRejected = 2,  ///< non-Truman: query refused
  };
  Kind kind = Kind::kEmpty;
  Table rows;  ///< populated when kind == kAnswer
};

/// \brief A table guarded by a sensitivity policy and an access-control model.
class AccessControlledDb {
 public:
  /// Takes ownership of the data; `policy` marks the protected records and
  /// classifies every row once. NotFound if the policy names an unknown
  /// column, InvalidArgument if it compares a string column against a
  /// number (or the reverse).
  static Result<AccessControlledDb> Create(Table data, const Policy& policy);

  /// \brief Answers "SELECT * WHERE pred" under the given model.
  ///
  /// Truman: evaluates against the authorized (non-sensitive) view; returns
  /// kEmpty when no authorized row matches — even if sensitive rows do.
  /// Non-Truman: returns kRejected whenever any *sensitive* row matches
  /// (answering would require unauthorized data); otherwise answers.
  /// A `pred` that does not type-check against the data is an error Status
  /// (NotFound / InvalidArgument, as in Create), never an abort.
  Result<AccessControlResponse> Select(const Predicate& pred,
                                       AccessControlModel model) const;

  /// The guarded data (test/diagnostic access).
  const Table& data() const { return data_; }

 private:
  AccessControlledDb(Table data, RowMask sensitive_mask)
      : data_(std::move(data)), sensitive_mask_(std::move(sensitive_mask)) {}

  Table data_;
  RowMask sensitive_mask_;  // data_ is immutable: classified once by Create
};

}  // namespace osdp

#endif  // OSDP_ACCESSCONTROL_ACCESS_CONTROL_H_
