// AP-level privacy policies over trajectories (Section 6.1.1): a set of
// sensitive access points (e.g. lounge, restroom) marks as sensitive every
// daily trajectory that passes through any of them. P_ρ policies are
// calibrated so that a ρ/100 share of trajectories ends up non-sensitive.

#ifndef OSDP_TRAJ_AP_POLICY_H_
#define OSDP_TRAJ_AP_POLICY_H_

#include <cstdint>
#include <vector>

#include "src/common/result.h"
#include "src/policy/generic_policy.h"
#include "src/traj/trajectory.h"

namespace osdp {

/// \brief A policy defined by a sensitive-AP set.
class ApSetPolicy {
 public:
  /// Creates from an explicit sensitive-AP set (may be empty).
  ApSetPolicy(std::vector<bool> sensitive_aps);  // NOLINT(runtime/explicit)

  /// Number of APs in the building.
  size_t num_aps() const { return sensitive_aps_.size(); }

  /// True iff `ap` is a sensitive location.
  bool IsSensitiveAp(int ap) const;

  /// Sensitive APs as a bitmap.
  const std::vector<bool>& sensitive_aps() const { return sensitive_aps_; }

  /// True iff the trajectory passes through any sensitive AP (paper: the
  /// whole daily trajectory becomes sensitive).
  bool IsSensitive(const Trajectory& traj) const;

  /// Wraps as a GenericPolicy for use with the OSDP mechanisms.
  GenericPolicy<Trajectory> AsPolicy() const;

  /// Fraction of non-sensitive trajectories under this policy.
  double NonSensitiveFraction(const std::vector<Trajectory>& trajs) const;

  /// \brief Bin sensitivity map for an (AP x hour) histogram: every bin of a
  /// sensitive AP row is sensitive. Used by the hybrid OsdpLaplaceL1 (the
  /// policy is value-based, so the split is public; Section 6.3.3.1).
  std::vector<bool> ApHourBinSensitivity(size_t hours) const;

 private:
  std::vector<bool> sensitive_aps_;
};

/// \brief Calibrates a sensitive-AP set so the non-sensitive trajectory
/// fraction approximates `target_ns_fraction` (the paper's P_ρ with
/// ρ = target·100). Greedy: repeatedly add the AP whose marginal coverage
/// brings the sensitive fraction closest to the target without large
/// overshoot. Returns the policy; the achieved fraction is queryable via
/// NonSensitiveFraction.
Result<ApSetPolicy> CalibrateApPolicy(const std::vector<Trajectory>& trajs,
                                      int num_aps, double target_ns_fraction);

/// The paper's policy grid ρ ∈ {99, 90, 75, 50, 25, 10, 1} (as fractions).
const std::vector<double>& PaperPolicyGrid();

}  // namespace osdp

#endif  // OSDP_TRAJ_AP_POLICY_H_
