#include "src/traj/building_sim.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/common/distributions.h"

namespace osdp {

namespace {

// Grid width of the corridor layout.
constexpr int kGridWidth = 8;

// Common areas every user occasionally walks to: the first few APs model
// lobby / lounge / kitchen / restrooms. These give visitors and residents
// shared hotspots and give AP-level policies natural targets.
constexpr int kNumCommonAps = 6;

struct SimState {
  const BuildingSimConfig* cfg;
  std::vector<std::vector<int>> graph;
};

// Walks one step toward `target` along the grid (greedy Manhattan descent);
// returns the next AP.
int StepToward(int from, int target) {
  if (from == target) return from;
  const int fr = from / kGridWidth, fc = from % kGridWidth;
  const int tr = target / kGridWidth, tc = target % kGridWidth;
  int nr = fr, nc = fc;
  if (fr != tr) {
    nr += (tr > fr) ? 1 : -1;
  } else {
    nc += (tc > fc) ? 1 : -1;
  }
  return nr * kGridWidth + nc;
}

// Simulates one visit: the user occupies `ap`-ish locations for
// [start, start+duration) slots, moving between anchor points.
void FillStay(const SimState& st, int start, int duration, int home_ap,
              bool is_resident, Rng& rng, Trajectory* out) {
  const int slots = st.cfg->slots_per_day;
  const int num_aps = st.cfg->num_aps;
  int t = start;
  int cur = home_ap;
  const int end = std::min(slots, start + duration);
  while (t < end) {
    // Dwell at the current AP for a geometric number of slots; residents
    // settle longer at their home AP.
    const double leave_p =
        (is_resident && cur == home_ap) ? 0.08 : (is_resident ? 0.35 : 0.45);
    int dwell = 1 + static_cast<int>(SampleGeometric(rng, leave_p));
    dwell = std::min(dwell, end - t);
    for (int k = 0; k < dwell; ++k) out->slots[t++] = static_cast<int16_t>(cur);
    if (t >= end) break;
    // Pick the next anchor: home, a common area, or a random neighbour.
    const double u = rng.NextDouble();
    int target;
    if (is_resident && u < 0.5) {
      target = home_ap;
    } else if (u < 0.75) {
      target = static_cast<int>(rng.NextBounded(kNumCommonAps));
    } else {
      target = static_cast<int>(rng.NextBounded(num_aps));
    }
    // Walk there slot by slot (connected path through the grid).
    while (cur != target && t < end) {
      cur = StepToward(cur, target);
      out->slots[t++] = static_cast<int16_t>(cur);
    }
  }
}

Trajectory MakeDailyTrajectory(const SimState& st, const UserProfile& user,
                               int day, Rng& rng) {
  const BuildingSimConfig& cfg = *st.cfg;
  Trajectory traj;
  traj.user_id = user.user_id;
  traj.day = day;
  traj.slots.assign(cfg.slots_per_day, kAbsent);

  if (user.is_resident) {
    if (rng.NextBernoulli(0.15)) {
      // Atypical resident day: in only for a short meeting block. Overlaps
      // with visitor behaviour so the two classes are not trivially
      // separable by duration alone (the paper reports ~10% error).
      const int arrive = 48 + static_cast<int>(rng.NextBounded(60));
      const int duration = 4 + static_cast<int>(rng.NextBounded(14));
      FillStay(st, arrive, duration, user.home_ap, /*is_resident=*/true, rng,
               &traj);
      return traj;
    }
    // Morning arrival around slot 54 (09:00 for 10-minute slots), stay for
    // 6-10 hours, occasional evening overtime block.
    const int arrive = std::clamp(
        static_cast<int>(std::llround(SampleGaussian(rng, 54.0, 6.0))), 0,
        cfg.slots_per_day - 8);
    const int duration = 36 + static_cast<int>(rng.NextBounded(25));  // 6-10 h
    FillStay(st, arrive, duration, user.home_ap, /*is_resident=*/true, rng,
             &traj);
    if (rng.NextBernoulli(0.25)) {  // evening overtime: works beyond 19:00
      const int ot_start = 114 + static_cast<int>(rng.NextBounded(12));
      const int ot_len = 6 + static_cast<int>(rng.NextBounded(12));
      FillStay(st, ot_start, ot_len, user.home_ap, true, rng, &traj);
    }
  } else {
    if (rng.NextBernoulli(0.1)) {
      // Atypical visitor day: an all-morning contractor engagement hosted at
      // one office — resident-like duration from a non-resident.
      const int arrive = 50 + static_cast<int>(rng.NextBounded(12));
      const int duration = 24 + static_cast<int>(rng.NextBounded(20));
      const int host = static_cast<int>(rng.NextBounded(cfg.num_aps));
      FillStay(st, arrive, duration, host, /*is_resident=*/true, rng, &traj);
      return traj;
    }
    // Visitors: one short visit at a random daytime slot, mostly around the
    // common areas or a random host office.
    const int arrive = 48 + static_cast<int>(rng.NextBounded(60));
    const int duration = 3 + static_cast<int>(rng.NextBounded(12));  // .5-2.5 h
    const int host = rng.NextBernoulli(0.5)
                         ? static_cast<int>(rng.NextBounded(kNumCommonAps))
                         : static_cast<int>(rng.NextBounded(cfg.num_aps));
    FillStay(st, arrive, duration, host, /*is_resident=*/false, rng, &traj);
  }
  return traj;
}

}  // namespace

std::vector<std::vector<int>> BuildingApGraph(int num_aps) {
  OSDP_CHECK(num_aps > 0);
  std::vector<std::vector<int>> graph(num_aps);
  for (int ap = 0; ap < num_aps; ++ap) {
    const int r = ap / kGridWidth, c = ap % kGridWidth;
    const int dr[] = {-1, 1, 0, 0};
    const int dc[] = {0, 0, -1, 1};
    for (int k = 0; k < 4; ++k) {
      const int nr = r + dr[k], nc = c + dc[k];
      const int n = nr * kGridWidth + nc;
      if (nr >= 0 && nc >= 0 && nc < kGridWidth && n < num_aps) {
        graph[ap].push_back(n);
      }
    }
  }
  return graph;
}

Result<TrajectoryDataset> SimulateBuilding(const BuildingSimConfig& config) {
  if (config.num_aps != 64) {
    // The mobility model walks an 8x8 grid; other sizes would leave APs
    // unreachable or out of bounds.
    if (config.num_aps <= 0 || config.num_aps % kGridWidth != 0) {
      return Status::InvalidArgument("num_aps must be a positive multiple of 8");
    }
  }
  if (config.slots_per_day < 16) {
    return Status::InvalidArgument("slots_per_day too small");
  }
  if (config.num_users <= 1 || config.num_days <= 0) {
    return Status::InvalidArgument("need at least 2 users and 1 day");
  }
  if (!(config.resident_fraction > 0.0 && config.resident_fraction < 1.0)) {
    return Status::InvalidArgument("resident_fraction must be in (0,1)");
  }

  Rng rng(config.seed);
  SimState st{&config, BuildingApGraph(config.num_aps)};

  TrajectoryDataset out;
  out.config = config;
  out.users.reserve(config.num_users);
  const int num_residents = std::max(
      1, static_cast<int>(config.resident_fraction * config.num_users));
  for (int u = 0; u < config.num_users; ++u) {
    UserProfile profile;
    profile.user_id = u;
    profile.is_resident = u < num_residents;
    // Offices live outside the common area block.
    profile.home_ap = static_cast<int16_t>(
        kNumCommonAps +
        rng.NextBounded(static_cast<uint64_t>(config.num_aps - kNumCommonAps)));
    out.users.push_back(profile);
  }

  for (int day = 0; day < config.num_days; ++day) {
    for (const UserProfile& user : out.users) {
      const double attend = user.is_resident ? config.resident_attendance
                                             : config.visitor_attendance;
      if (!rng.NextBernoulli(attend)) continue;
      Trajectory traj = MakeDailyTrajectory(st, user, day, rng);
      if (traj.PresentSlots() == 0) continue;
      out.trajectories.push_back(std::move(traj));
    }
  }
  if (out.trajectories.empty()) {
    return Status::Internal("simulation produced no trajectories");
  }
  return out;
}

}  // namespace osdp
