// GenericPolicy<T>: policy functions over arbitrary record types (e.g. the
// trajectory records of Section 6.1.1, where a whole daily trajectory is the
// unit of privacy and the policy checks for sensitive access points).

#ifndef OSDP_POLICY_GENERIC_POLICY_H_
#define OSDP_POLICY_GENERIC_POLICY_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace osdp {

/// \brief Policy over records of arbitrary type T.
///
/// Mirrors Policy's semantics: the wrapped function returns true for
/// *sensitive* records. Supports the same minimum-relaxation algebra.
template <typename T>
class GenericPolicy {
 public:
  using SensitiveFn = std::function<bool(const T&)>;

  /// Builds from a sensitivity function (true = sensitive).
  static GenericPolicy SensitiveWhen(SensitiveFn fn, std::string name = "") {
    OSDP_CHECK(fn != nullptr);
    return GenericPolicy(std::move(fn), std::move(name));
  }

  /// All-sensitive policy (OSDP degenerates to DP).
  static GenericPolicy AllSensitive() {
    return GenericPolicy([](const T&) { return true; }, "P_all");
  }

  /// All-non-sensitive policy.
  static GenericPolicy AllNonSensitive() {
    return GenericPolicy([](const T&) { return false; }, "P_none");
  }

  /// True iff the record is sensitive (paper: P(r) = 0).
  bool IsSensitive(const T& record) const { return fn_(record); }
  /// True iff the record is non-sensitive (paper: P(r) = 1).
  bool IsNonSensitive(const T& record) const { return !fn_(record); }

  /// Fraction of non-sensitive records in `records`.
  double NonSensitiveFraction(const std::vector<T>& records) const {
    if (records.empty()) return 0.0;
    size_t ns = 0;
    for (const T& r : records) ns += IsNonSensitive(r) ? 1 : 0;
    return static_cast<double>(ns) / static_cast<double>(records.size());
  }

  /// Minimum relaxation: sensitive iff sensitive under both (Definition 3.6).
  static GenericPolicy MinimumRelaxation(const GenericPolicy& a,
                                         const GenericPolicy& b) {
    auto fa = a.fn_;
    auto fb = b.fn_;
    return GenericPolicy(
        [fa, fb](const T& r) { return fa(r) && fb(r); },
        "mr(" + a.name_ + ", " + b.name_ + ")");
  }

  /// Diagnostic name.
  const std::string& name() const { return name_; }

 private:
  GenericPolicy(SensitiveFn fn, std::string name)
      : fn_(std::move(fn)), name_(std::move(name)) {}

  SensitiveFn fn_;
  std::string name_;
};

}  // namespace osdp

#endif  // OSDP_POLICY_GENERIC_POLICY_H_
