// GenericPolicy<T>: policy functions over arbitrary record types (e.g. the
// trajectory records of Section 6.1.1, where a whole daily trajectory is the
// unit of privacy and the policy checks for sensitive access points).

#ifndef OSDP_POLICY_GENERIC_POLICY_H_
#define OSDP_POLICY_GENERIC_POLICY_H_

#include <functional>
#include <utility>

#include "src/common/check.h"

namespace osdp {

/// \brief Policy over records of arbitrary type T.
///
/// Mirrors Policy's semantics: the wrapped function returns true for
/// *sensitive* records. OsdpRR releases read only IsNonSensitive; the
/// relaxation algebra (Definitions 3.5-3.7) lives on the table Policy.
template <typename T>
class GenericPolicy {
 public:
  using SensitiveFn = std::function<bool(const T&)>;

  /// Builds from a sensitivity function (true = sensitive).
  static GenericPolicy SensitiveWhen(SensitiveFn fn) {
    OSDP_CHECK(fn != nullptr);
    return GenericPolicy(std::move(fn));
  }

  /// True iff the record is non-sensitive (paper: P(r) = 1).
  bool IsNonSensitive(const T& record) const { return !fn_(record); }

 private:
  explicit GenericPolicy(SensitiveFn fn) : fn_(std::move(fn)) {}

  SensitiveFn fn_;
};

}  // namespace osdp

#endif  // OSDP_POLICY_GENERIC_POLICY_H_
