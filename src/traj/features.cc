#include "src/traj/features.h"

#include <algorithm>
#include <map>


namespace osdp {

namespace {

// Dwell-compressed AP sequence of a trajectory.
std::vector<int> CompressedSequence(const Trajectory& traj) {
  std::vector<int> seq;
  for (int16_t s : traj.slots) {
    if (s == kAbsent) continue;
    if (!seq.empty() && seq.back() == s) continue;
    seq.push_back(s);
  }
  return seq;
}

// Occurrences of `pattern` as a contiguous subsequence of `seq`.
int CountOccurrences(const std::vector<int>& seq,
                     const std::vector<int>& pattern) {
  if (seq.size() < pattern.size() || pattern.empty()) return 0;
  int count = 0;
  for (size_t t = 0; t + pattern.size() <= seq.size(); ++t) {
    bool match = true;
    for (size_t k = 0; k < pattern.size(); ++k) {
      if (seq[t + k] != pattern[k]) {
        match = false;
        break;
      }
    }
    count += match ? 1 : 0;
  }
  return count;
}

}  // namespace

std::vector<std::vector<int>> MineFrequentPatterns(
    const std::vector<Trajectory>& trajs, int min_support) {
  constexpr size_t kPatternLength = 3;  // (AP1, AP2, AP3), per the paper
  constexpr size_t kMaxPatterns = 32;   // keep the most frequent
  // support[pattern] = number of trajectories containing it at least once.
  std::map<std::vector<int>, int> support;
  for (const Trajectory& traj : trajs) {
    const std::vector<int> seq = CompressedSequence(traj);
    if (seq.size() < kPatternLength) continue;
    std::vector<std::vector<int>> seen;
    for (size_t t = 0; t + kPatternLength <= seq.size(); ++t) {
      seen.emplace_back(seq.begin() + t, seq.begin() + t + kPatternLength);
    }
    std::sort(seen.begin(), seen.end());
    seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
    for (const auto& p : seen) support[p] += 1;
  }
  std::vector<std::pair<int, std::vector<int>>> ranked;
  for (const auto& [pattern, sup] : support) {
    if (sup >= min_support) ranked.push_back({sup, pattern});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<std::vector<int>> out;
  for (const auto& [sup, pattern] : ranked) {
    if (out.size() >= kMaxPatterns) break;
    out.push_back(pattern);
  }
  return out;
}

Result<LabeledFeatures> BuildClassificationFeatures(
    const std::vector<Trajectory>& trajs, const std::vector<UserProfile>& users,
    int num_aps, const std::vector<std::vector<int>>& patterns) {
  if (trajs.empty()) return Status::InvalidArgument("no trajectories");
  if (num_aps <= 0) return Status::InvalidArgument("num_aps must be positive");

  LabeledFeatures out;
  out.feature_names.push_back("duration_slots");
  out.feature_names.push_back("distinct_aps");
  for (int ap = 0; ap < num_aps; ++ap) {
    out.feature_names.push_back("visits_ap_" + std::to_string(ap));
  }
  for (size_t p = 0; p < patterns.size(); ++p) {
    std::string name = "pattern";
    for (int ap : patterns[p]) name += "_" + std::to_string(ap);
    out.feature_names.push_back(std::move(name));
  }

  out.x.reserve(trajs.size());
  out.y.reserve(trajs.size());
  for (const Trajectory& traj : trajs) {
    if (traj.user_id < 0 ||
        static_cast<size_t>(traj.user_id) >= users.size()) {
      return Status::InvalidArgument("trajectory references unknown user");
    }
    std::vector<double> row;
    row.reserve(out.feature_names.size());
    row.push_back(static_cast<double>(traj.PresentSlots()));
    row.push_back(static_cast<double>(traj.DistinctAps()));
    for (int ap = 0; ap < num_aps; ++ap) {
      row.push_back(static_cast<double>(traj.SlotsAt(static_cast<int16_t>(ap))));
    }
    const std::vector<int> seq = CompressedSequence(traj);
    for (const auto& pattern : patterns) {
      row.push_back(static_cast<double>(CountOccurrences(seq, pattern)));
    }
    out.x.push_back(std::move(row));
    out.y.push_back(users[static_cast<size_t>(traj.user_id)].is_resident ? 1 : 0);
  }
  return out;
}

}  // namespace osdp
