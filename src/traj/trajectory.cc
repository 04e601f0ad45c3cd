#include "src/traj/trajectory.h"

#include <set>

namespace osdp {

size_t Trajectory::PresentSlots() const {
  size_t n = 0;
  for (int16_t s : slots) n += (s != kAbsent) ? 1 : 0;
  return n;
}

size_t Trajectory::DistinctAps() const {
  std::set<int16_t> aps;
  for (int16_t s : slots) {
    if (s != kAbsent) aps.insert(s);
  }
  return aps.size();
}

size_t Trajectory::SlotsAt(int16_t ap) const {
  size_t n = 0;
  for (int16_t s : slots) n += (s == ap) ? 1 : 0;
  return n;
}

}  // namespace osdp
