#include "src/traj/ap_policy.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/data/bit_kernels.h"

namespace osdp {

ApSetPolicy::ApSetPolicy(std::vector<bool> sensitive_aps)
    : sensitive_aps_(std::move(sensitive_aps)) {
  OSDP_CHECK(!sensitive_aps_.empty());
}

bool ApSetPolicy::IsSensitiveAp(int ap) const {
  OSDP_CHECK(ap >= 0 && static_cast<size_t>(ap) < sensitive_aps_.size());
  return sensitive_aps_[static_cast<size_t>(ap)];
}

bool ApSetPolicy::IsSensitive(const Trajectory& traj) const {
  for (int16_t s : traj.slots) {
    if (s != kAbsent && sensitive_aps_[static_cast<size_t>(s)]) return true;
  }
  return false;
}

GenericPolicy<Trajectory> ApSetPolicy::AsPolicy() const {
  std::vector<bool> aps = sensitive_aps_;
  return GenericPolicy<Trajectory>::SensitiveWhen(
      [aps = std::move(aps)](const Trajectory& t) {
        for (int16_t s : t.slots) {
          if (s != kAbsent && aps[static_cast<size_t>(s)]) return true;
        }
        return false;
      });
}

double ApSetPolicy::NonSensitiveFraction(
    const std::vector<Trajectory>& trajs) const {
  if (trajs.empty()) return 0.0;
  size_t ns = 0;
  for (const Trajectory& t : trajs) ns += IsSensitive(t) ? 0 : 1;
  return static_cast<double>(ns) / static_cast<double>(trajs.size());
}

std::vector<bool> ApSetPolicy::ApHourBinSensitivity(size_t hours) const {
  std::vector<bool> bins(sensitive_aps_.size() * hours, false);
  for (size_t ap = 0; ap < sensitive_aps_.size(); ++ap) {
    if (!sensitive_aps_[ap]) continue;
    for (size_t h = 0; h < hours; ++h) bins[ap * hours + h] = true;
  }
  return bins;
}

Result<ApSetPolicy> CalibrateApPolicy(const std::vector<Trajectory>& trajs,
                                      int num_aps, double target_ns_fraction) {
  if (trajs.empty()) return Status::InvalidArgument("no trajectories");
  if (num_aps <= 0) return Status::InvalidArgument("num_aps must be positive");
  if (!(target_ns_fraction > 0.0 && target_ns_fraction < 1.0)) {
    return Status::InvalidArgument("target fraction must be in (0,1)");
  }
  const size_t n = trajs.size();
  const double target_sensitive = 1.0 - target_ns_fraction;

  // Per-AP coverage bitmaps over trajectories.
  const size_t words = (n + 63) / 64;
  std::vector<std::vector<uint64_t>> cover(
      static_cast<size_t>(num_aps), std::vector<uint64_t>(words, 0));
  for (size_t i = 0; i < n; ++i) {
    for (int16_t s : trajs[i].slots) {
      if (s == kAbsent) continue;
      OSDP_CHECK(s >= 0 && s < num_aps);
      cover[static_cast<size_t>(s)][i / 64] |= uint64_t{1} << (i % 64);
    }
  }

  std::vector<size_t> cover_count(static_cast<size_t>(num_aps));
  for (size_t ap = 0; ap < cover_count.size(); ++ap) {
    cover_count[ap] = PopcountWords(cover[ap].data(), 0, words);
  }

  std::vector<uint64_t> covered(words, 0);
  std::vector<bool> chosen(static_cast<size_t>(num_aps), false);
  size_t covered_count = 0;
  // |covered ∪ cover[ap]| by inclusion-exclusion, in exact integers.
  auto union_count = [&](size_t ap) {
    return covered_count + cover_count[ap] -
           AndPopcountWords(covered.data(), cover[ap].data(), 0, words);
  };

  // A non-trivial policy needs at least one sensitive AP. When every AP
  // overshoots the target (e.g. P99 in a building where every AP covers
  // more than 1% of trajectories), take the least-covering AP anyway —
  // closest achievable point to the target from above.
  {
    int min_ap = -1;
    size_t min_cover = n + 1;
    for (int ap = 0; ap < num_aps; ++ap) {
      const size_t cnt = cover_count[static_cast<size_t>(ap)];
      if (cnt < min_cover) {
        min_cover = cnt;
        min_ap = ap;
      }
    }
    OSDP_CHECK(min_ap >= 0);
    chosen[static_cast<size_t>(min_ap)] = true;
    for (size_t w = 0; w < words; ++w) {
      covered[w] |= cover[static_cast<size_t>(min_ap)][w];
    }
    covered_count = min_cover;
  }

  // Greedy: each step adds the AP whose resulting sensitive fraction is
  // closest to the target; stop when no addition improves the distance.
  for (;;) {
    double best_dist = std::abs(static_cast<double>(covered_count) / n -
                                target_sensitive);
    int best_ap = -1;
    size_t best_count = covered_count;
    for (int ap = 0; ap < num_aps; ++ap) {
      if (chosen[static_cast<size_t>(ap)]) continue;
      const size_t cnt = union_count(static_cast<size_t>(ap));
      const double dist =
          std::abs(static_cast<double>(cnt) / n - target_sensitive);
      if (dist < best_dist) {
        best_dist = dist;
        best_ap = ap;
        best_count = cnt;
      }
    }
    if (best_ap < 0) break;
    chosen[static_cast<size_t>(best_ap)] = true;
    for (size_t w = 0; w < words; ++w) {
      covered[w] |= cover[static_cast<size_t>(best_ap)][w];
    }
    covered_count = best_count;
  }
  return ApSetPolicy(std::move(chosen));
}

const std::vector<double>& PaperPolicyGrid() {
  static const std::vector<double> kGrid = {0.99, 0.90, 0.75, 0.50,
                                            0.25, 0.10, 0.01};
  return kGrid;
}

}  // namespace osdp
