// Shared scaffolding for the experiment binaries: canonical simulation
// configs, policy grids, and environment-variable knobs so every bench
// regenerates its paper artefact with consistent inputs; and the toolkit of
// the systems microbenches — timing, the shared census policy and DAWA
// inputs, strict size and thread-list knobs, and the JSON artefact writer
// whose header every BENCH_*.json opens with.

#ifndef OSDP_BENCH_BENCH_COMMON_H_
#define OSDP_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cctype>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/common/distributions.h"
#include "src/common/env.h"
#include "src/common/random.h"
#include "src/data/predicate.h"
#include "src/policy/policy.h"
#include "src/traj/ap_policy.h"
#include "src/traj/building_sim.h"

namespace osdp {
namespace bench {

/// \brief A positive size knob read from env var `name`. Strict parse
/// (src/common/env.h): unset, unparsable ("7junk", "garbage"), or
/// non-positive values all yield `fallback` — a typo must not silently run a
/// different experiment, or none at all.
inline size_t EnvSize(const char* name, size_t fallback) {
  long long v = 0;
  if (!ParseInt64Strict(std::getenv(name), &v) || v <= 0) return fallback;
  return static_cast<size_t>(v);
}

/// \brief EnvSize for an int-typed knob; values past INT_MAX also yield
/// `fallback`.
inline int EnvInt(const char* name, int fallback) {
  const size_t v = EnvSize(name, static_cast<size_t>(fallback));
  return v <= static_cast<size_t>(INT_MAX) ? static_cast<int>(v) : fallback;
}

/// \brief Repetition count, overridable via OSDP_BENCH_REPS (EnvInt).
inline int Reps(int fallback) { return EnvInt("OSDP_BENCH_REPS", fallback); }

/// \brief The worker-count grid from OSDP_BENCH_THREADS, a comma-separated
/// list such as "1,2,4" (0 = inline pool). Every token is parsed strictly; an
/// unset or empty list, an empty, unparsable or negative token yields the
/// whole `fallback` grid.
inline std::vector<size_t> ThreadGrid(std::vector<size_t> fallback) {
  const char* env = std::getenv("OSDP_BENCH_THREADS");
  if (env == nullptr) return fallback;
  std::vector<size_t> out;
  const std::string s = env;
  for (size_t pos = 0; pos <= s.size();) {
    const size_t comma = std::min(s.find(',', pos), s.size());
    long long v = 0;
    if (!ParseInt64Strict(s.substr(pos, comma - pos).c_str(), &v) || v < 0) {
      return fallback;
    }
    out.push_back(static_cast<size_t>(v));
    pos = comma + 1;
  }
  return out;
}

/// \brief A non-negative double knob (overhead gates, ratios) read from env
/// var `name` with the same strict-or-fallback contract as Reps.
inline double EnvGate(const char* name, double fallback) {
  double v = 0.0;
  if (!ParseDoubleStrict(std::getenv(name), &v)) return fallback;
  return v >= 0.0 ? v : fallback;
}

/// \brief Nearest-rank percentile of `vals` (copied and sorted internally):
/// the smallest element with rank >= ceil(p/100 · N). p=50 is the median of
/// odd-length inputs and the lower-middle of even ones; 0 on empty input.
/// The house latency-reporting idiom (bench_percentile in the liric
/// exemplar): exact, deterministic, no interpolation — a reported p99 is an
/// actual observed sample.
inline double Percentile(std::vector<double> vals, double p) {
  if (vals.empty()) return 0.0;
  std::sort(vals.begin(), vals.end());
  const double exact = p / 100.0 * static_cast<double>(vals.size());
  size_t rank = static_cast<size_t>(exact);
  if (static_cast<double>(rank) < exact) ++rank;  // ceil
  if (rank < 1) rank = 1;
  if (rank > vals.size()) rank = vals.size();
  return vals[rank - 1];
}

/// Median via Percentile(·, 50).
inline double Median(std::vector<double> vals) {
  return Percentile(std::move(vals), 50.0);
}

/// The standard latency trio + count and max: nearest-rank Percentile of a
/// sample vector at 50/95/99/100. Feed it per-query durations (e.g.
/// ServiceAnswer's server_duration_micros) and report/record the fields
/// directly.
struct LatencyStats {
  size_t count = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

inline LatencyStats SummarizeLatencies(const std::vector<double>& vals) {
  return {vals.size(), Percentile(vals, 50.0), Percentile(vals, 95.0),
          Percentile(vals, 99.0), Percentile(vals, 100.0)};
}

/// Monotonic wall-clock seconds, for differences only.
inline double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best (minimum) seconds of `reps` timed calls of `fn`.
template <typename Fn>
double BestOf(int reps, const Fn& fn) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    const double t0 = NowSec();
    fn();
    best = std::min(best, NowSec() - t0);
  }
  return best;
}

/// One untimed warmup call of `fn`, then BestOf(reps, fn).
template <typename Fn>
double TimeBest(int reps, const Fn& fn) {
  fn();
  return BestOf(reps, fn);
}

/// Spiky integer-valued histogram (Adult-like) of the DAWA benches: sparse
/// large counts over zeros. Integer values keep both interval-cost
/// implementations exactly comparable.
inline std::vector<double> SpikyData(size_t d, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(d);
  for (auto& v : x) {
    v = rng.NextBernoulli(0.1)
            ? static_cast<double>(rng.NextBounded(1 << 20))
            : 0.0;
  }
  return x;
}

/// The input DAWA's stage 1 hands the interval-cost engine: SpikyData plus
/// Lap(2/ε₁) in every bin, so all d values are distinct non-integers. ε₁ is
/// a quarter (DAWA's default partition share) of the ε = 0.01 that the
/// bench/service_load mech_releases workload releases at, i.e. Lap(800).
inline std::vector<double> NoisySpikyData(size_t d, uint64_t seed) {
  std::vector<double> x = SpikyData(d, seed);
  Rng rng(seed ^ 0x5EEDu);
  for (auto& v : x) v += SampleLaplace(rng, 2.0 / (0.25 * 0.01));
  return x;
}

/// A narrow band of distinct values with outliers on alternate sides: every
/// third bin is 0 or 2²¹ in turn, the rest are 2²⁰ + a permutation of
/// [0, d). An outlier entering or leaving a window of length len moves its
/// mean by 2²⁰/len, across many band values at once: the hard case for the
/// interval-cost engine's threshold walk. Integer valued, so both
/// interval-cost implementations stay exactly comparable.
inline std::vector<double> ClusteredData(size_t d, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> band(d);
  for (size_t i = 0; i < d; ++i) band[i] = static_cast<double>((1 << 20) + i);
  for (size_t i = d; i > 1; --i) {
    std::swap(band[i - 1], band[rng.NextBounded(i)]);
  }
  std::vector<double> x(d);
  for (size_t i = 0; i < d; ++i) {
    if (i % 3 != 2) {
      x[i] = band[i];
    } else {
      x[i] = (i / 3) % 2 == 0 ? 0.0 : static_cast<double>(1 << 21);
    }
  }
  return x;
}

/// The inputs of the DAWA benches (bench_dawa_partition, bench_mech_parallel).
struct DawaInput {
  const char* name;
  std::vector<double> (*make)(size_t d, uint64_t seed);
  bool integer;  // exact arithmetic: every implementation agrees bit for bit
};

inline constexpr DawaInput kDawaInputs[] = {
    {"spiky", SpikyData, true},
    {"noisy", NoisySpikyData, false},
    {"clustered", ClusteredData, true}};

/// The build type as the compiler saw it: the root CMakeLists.txt builds
/// Release as -O2 -DNDEBUG.
inline const char* BuildType() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return "Release";
#elif defined(__OPTIMIZE__)
  return "optimized, assertions on";
#else
  return "Debug";
#endif
}

/// `git rev-parse --short HEAD` in the working directory, or "unknown".
inline std::string GitCommit() {
  std::string out;
  if (FILE* p = popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
    char buf[64];
    while (std::fgets(buf, sizeof buf, p) != nullptr) out += buf;
    if (pclose(p) != 0) out.clear();
  }
  while (!out.empty() && std::isspace(static_cast<unsigned char>(out.back()))) {
    out.pop_back();
  }
  return out.empty() ? "unknown" : out;
}

/// \brief The JSON artefact of a systems microbench, written to
/// OSDP_BENCH_JSON or `default_path`. The constructor writes the header
/// every BENCH_*.json opens with:
///
///   {"bench": …, "hardware_concurrency": …, "build_type": …, "commit": …,
///
/// The bench then prints its own top-level keys to file(), one per line,
/// each ending in ",\n" — or ends with Records() — and Close() writes the
/// closing brace.
class BenchJson {
 public:
  BenchJson(const char* bench, const char* default_path) {
    const char* env = std::getenv("OSDP_BENCH_JSON");
    path_ = env != nullptr ? env : default_path;
    f_ = std::fopen(path_.c_str(), "w");
    if (f_ == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path_.c_str());
      return;
    }
    std::fprintf(f_,
                 "{\n  \"bench\": \"%s\",\n  \"hardware_concurrency\": %u,\n"
                 "  \"build_type\": \"%s\",\n  \"commit\": \"%s\",\n",
                 bench, std::thread::hardware_concurrency(), BuildType(),
                 GitCommit().c_str());
  }
  ~BenchJson() {
    if (f_ != nullptr) std::fclose(f_);
  }
  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;

  /// False, after a message on stderr, when the file could not be opened.
  bool ok() const { return f_ != nullptr; }
  FILE* file() const { return f_; }
  const std::string& path() const { return path_; }

  /// Writes the last top-level key: `"key": [` and one record per item, each
  /// printed by `write(FILE*, const T&)` on its own line.
  template <typename T, typename Fn>
  void Records(const char* key, const std::vector<T>& items, const Fn& write) {
    std::fprintf(f_, "  \"%s\": [\n", key);
    for (size_t i = 0; i < items.size(); ++i) {
      std::fputs("    ", f_);
      write(f_, items[i]);
      std::fputs(i + 1 < items.size() ? ",\n" : "\n", f_);
    }
    std::fputs("  ]\n", f_);
  }

  /// Writes the closing brace and closes the file; false on a write error.
  bool Close() {
    const bool written = std::fputs("}\n", f_) >= 0;
    const bool closed = std::fclose(f_) == 0;
    f_ = nullptr;
    if (!written || !closed) {
      std::fprintf(stderr, "cannot write %s\n", path_.c_str());
    }
    return written && closed;
  }

 private:
  std::string path_;
  FILE* f_ = nullptr;
};

/// The canonical scaled-down TIPPERS simulation shared by the trajectory
/// benches (paper: 585K trajectories / 16K users over 9 months — we default
/// to a laptop-scale slice; OSDP_BENCH_USERS / OSDP_BENCH_DAYS rescale it).
inline const TrajectoryDataset& Tippers() {
  static const TrajectoryDataset kSim = [] {
    BuildingSimConfig cfg;
    cfg.num_users = EnvInt("OSDP_BENCH_USERS", 600);
    cfg.num_days = EnvInt("OSDP_BENCH_DAYS", 40);
    // Mirror the paper's class imbalance: residents are a small share of the
    // population (381 of 16K users; ~8% of daily trajectories).
    cfg.resident_fraction = 0.12;
    cfg.resident_attendance = 0.6;
    cfg.visitor_attendance = 0.25;
    cfg.seed = 20171216;  // arXiv submission date of the paper
    return *SimulateBuilding(cfg);
  }();
  return kSim;
}

/// The paper's policy labels P99...P1 with their target fractions: one
/// point per PaperPolicyGrid() entry, labelled "P" + the percentage.
struct PolicyPoint {
  std::string label;
  double target;
};

inline const std::vector<PolicyPoint>& PolicyGrid() {
  static const std::vector<PolicyPoint> kGrid = [] {
    std::vector<PolicyPoint> grid;
    for (double target : PaperPolicyGrid()) {
      grid.push_back(
          {"P" + std::to_string(std::lround(target * 100.0)), target});
    }
    return grid;
  }();
  return kGrid;
}

/// Calibrated AP policies for the shared simulation, built once.
inline const std::vector<ApSetPolicy>& TippersPolicies() {
  static const std::vector<ApSetPolicy> kPolicies = [] {
    std::vector<ApSetPolicy> out;
    for (const PolicyPoint& p : PolicyGrid()) {
      out.push_back(*CalibrateApPolicy(Tippers().trajectories,
                                       Tippers().config.num_aps, p.target));
    }
    return out;
  }();
  return kPolicies;
}

}  // namespace bench
}  // namespace osdp

#endif  // OSDP_BENCH_BENCH_COMMON_H_
