// Trajectory: one user's daily movement through a smart building, the unit
// of privacy protection in the paper's TIPPERS experiments (Section 6.1.1).
//
// Time is discretized into fixed slots (the paper uses 10-minute intervals,
// 144 per day); each slot holds the access point (AP) the user's device was
// most associated with, or kAbsent when the user was not in the building.

#ifndef OSDP_TRAJ_TRAJECTORY_H_
#define OSDP_TRAJ_TRAJECTORY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace osdp {

/// Slot value meaning "not in the building".
inline constexpr int16_t kAbsent = -1;

/// \brief A single daily trajectory.
struct Trajectory {
  int32_t user_id = 0;
  int32_t day = 0;
  /// slots[t] = AP id at time slot t, or kAbsent.
  std::vector<int16_t> slots;

  /// Number of slots the user was present.
  size_t PresentSlots() const;

  /// Number of distinct APs visited.
  size_t DistinctAps() const;

  /// Number of slots spent at `ap`.
  size_t SlotsAt(int16_t ap) const;
};

/// \brief A user's ground-truth profile in the simulator.
struct UserProfile {
  int32_t user_id = 0;
  bool is_resident = false;
  int16_t home_ap = 0;
};

}  // namespace osdp

#endif  // OSDP_TRAJ_TRAJECTORY_H_
