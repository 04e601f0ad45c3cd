// Classification features from trajectories (Section 6.2): duration of stay,
// distinct APs, per-AP visit counts, and frequent consecutive-AP patterns.

#ifndef OSDP_TRAJ_FEATURES_H_
#define OSDP_TRAJ_FEATURES_H_

#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/traj/building_sim.h"
#include "src/traj/trajectory.h"

namespace osdp {

/// \brief Mines consecutive-AP movement patterns (AP1, AP2, AP3) that appear
/// in at least `min_support` trajectories (dwell-compressed, so (a,a,a)
/// dwelling does not qualify). Sorted by support, descending, and capped at
/// the 32 most frequent. The length 3 is the paper's pattern shape and the
/// cap bounds the feature count; both are constants in features.cc.
std::vector<std::vector<int>> MineFrequentPatterns(
    const std::vector<Trajectory>& trajs, int min_support);

/// A labeled design matrix for the resident-vs-visitor task.
struct LabeledFeatures {
  std::vector<std::vector<double>> x;      ///< one row per trajectory
  std::vector<int> y;                      ///< 1 = resident, 0 = visitor
  std::vector<std::string> feature_names;  ///< column names, |x[i]| entries
};

/// \brief Builds features for `trajs`, labeling each trajectory with its
/// user's ground-truth class from `users` (the simulator substitutes the
/// paper's attendance-heuristic labels; see DESIGN.md).
///
/// Features: present-slot duration; distinct AP count; per-AP visit counts
/// (num_aps columns); per-pattern occurrence counts.
Result<LabeledFeatures> BuildClassificationFeatures(
    const std::vector<Trajectory>& trajs, const std::vector<UserProfile>& users,
    int num_aps, const std::vector<std::vector<int>>& patterns);

}  // namespace osdp

#endif  // OSDP_TRAJ_FEATURES_H_
