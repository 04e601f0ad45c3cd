// MetricsRegistry: the service's lock-light observability core — named
// counters and gauges over relaxed atomics, and fixed-bucket log-scale
// latency histograms with deterministic p50/p95/p99 extraction, mergeable
// across threads via per-shard accumulators.
//
// Design rules, in the order they matter:
//
//   1. Observation never influences answers. Nothing in this subsystem is
//      read on a decision path: metrics are write-only from the query
//      runtime, and every read surface (Snapshot, percentiles, dumps) is for
//      operators, tests, and benches. The repository's bit-identity replay
//      property suites run with metrics enabled and disabled and must agree
//      (tests/obs_test.cc, bench/bench_obs_overhead.cc).
//   2. The disabled path is one relaxed load per site. Instrumented code
//      gates on MetricsRegistry::enabled() — the FaultRegistry armed-gate
//      pattern — so OSDP_METRICS=0 (or Options::metrics_enabled = false)
//      costs a single relaxed atomic load where a timing site would be: no
//      clock reads, no increments, no allocation.
//   3. The enabled path allocates only at startup. Handles (Counter*,
//      Gauge*, LatencyHistogram*) are resolved once, at wiring time, under
//      the registry mutex; every Record/Increment/Set after that is lock-free
//      relaxed atomics on preallocated storage. The enabled-overhead budget
//      is <2% on the hot cached query path, enforced by
//      bench/bench_obs_overhead.cc exiting non-zero.
//
// Counter vs gauge vs histogram:
//
//   * Counter: monotone uint64, Increment(n) relaxed. Exact under any number
//     of concurrent writers (fetch_add), which is why the *functional*
//     counters — admission admitted/rejected, mask-cache hits/misses/
//     evictions — moved here from their previous per-subsystem schemes: one
//     uniform, race-free scheme, one source of truth, with the old accessors
//     (QueryService::admission_stats(), cache_stats()) left as thin views.
//     Functional counters are maintained even when telemetry is disabled;
//     the enabled() gate governs only the optional timing/trace layer.
//   * Gauge: a double set to the latest value (Set/Add/SetMax via relaxed
//     atomics; integers are exact up to 2^53). Used for levels: in-flight
//     batches, queue depth, generation, ε remaining.
//   * LatencyHistogram: fixed log-scale buckets (16 sub-buckets per octave —
//     see BucketFor; relative bucket width ≤ 6.25%), per-shard atomic
//     accumulators merged at read time. Percentile extraction is
//     deterministic nearest-rank over the merged counts: the reported value
//     is the inclusive upper bound of the bucket containing the rank-th
//     sample, so "p99 = X" is a guarantee ("the 99th-percentile sample was
//     ≤ X") accurate to the bucket width. tests/obs_test.cc pins the
//     extraction against a sorted-vector reference.
//
// Reads are racy-by-design: Snapshot() sums relaxed loads while writers keep
// writing, so between quiescent points totals are a consistent-enough
// composite for monitoring (the same contract MaskCache::stats() already
// had). Tests assert exactness only at quiescent points.

#ifndef OSDP_OBS_METRICS_H_
#define OSDP_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace osdp {
namespace obs {

/// Monotonic nanosecond timestamp (steady clock) — the time base of every
/// histogram and trace in the subsystem.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// OSDP_METRICS environment override: "0" disables telemetry process-wide
/// (the value consulted by QueryService::Create and ThreadPool). Anything
/// else — unset, empty, "1", garbage — leaves `fallback` in force: the knob
/// fails *on*, because observability going silently missing is worse than a
/// typo costing 2%.
inline bool MetricsEnabledFromEnv(bool fallback = true) {
  const char* env = std::getenv("OSDP_METRICS");
  if (env == nullptr) return fallback;
  return !(env[0] == '0' && env[1] == '\0');
}

/// \brief Monotone event counter. Increment is one relaxed fetch_add — exact
/// under any number of concurrent writers.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// \brief Last-value gauge (double; integers exact to 2^53). Set/Add/SetMax
/// are relaxed atomics — no lock, no ordering obligations.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double d) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + d,
                                         std::memory_order_relaxed,
                                         std::memory_order_relaxed)) {
    }
  }
  /// Raises the gauge to `v` if `v` exceeds the current value (high-water
  /// marks: peak in-flight, peak queue depth).
  void SetMax(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (cur < v && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed,
                          std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// \brief Fixed-bucket log-scale latency histogram over uint64 nanosecond
/// samples, sharded across threads for write scalability and merged at read
/// time.
///
/// Bucket layout ("HDR" style): values below 16 get one exact bucket each;
/// above that, each power-of-two octave is split into 16 linear sub-buckets,
/// so every bucket's width is ≤ 1/16 of its lower bound (≤ 6.25% relative
/// error on any reported percentile). Values ≥ 2^40 ns (~18 minutes) clamp
/// into the top bucket. The bucket function is monotone, so the bucket
/// sequence preserves sample order — which is what makes nearest-rank
/// percentile extraction from bucket counts exact to bucket resolution
/// (pinned against a sorted-vector reference in tests/obs_test.cc).
///
/// Record is two relaxed fetch_adds plus a (rarely-contended) relaxed max
/// CAS on the calling thread's shard; shards are assigned round-robin per
/// thread on first use. All storage is allocated at construction.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 4;
  static constexpr uint64_t kSubBuckets = 1ull << kSubBits;  // 16
  static constexpr int kMaxOctave = 39;  // top bucket ends at 2^40 - 1 ns
  static constexpr size_t kNumBuckets =
      static_cast<size_t>(kSubBuckets) * (kMaxOctave - kSubBits + 2);  // 592
  static constexpr size_t kShards = 8;

  LatencyHistogram() {
    for (Shard& s : shards_) {
      s.buckets = std::vector<std::atomic<uint64_t>>(kNumBuckets);
    }
  }

  /// Records one sample: lock-free relaxed atomics on this thread's shard.
  void Record(uint64_t value_ns) {
    Shard& s = shards_[ShardIndex()];
    s.buckets[BucketFor(value_ns)].fetch_add(1, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(value_ns, std::memory_order_relaxed);
    uint64_t cur = s.max.load(std::memory_order_relaxed);
    while (cur < value_ns &&
           !s.max.compare_exchange_weak(cur, value_ns,
                                        std::memory_order_relaxed,
                                        std::memory_order_relaxed)) {
    }
  }

  /// The bucket index of `v` — monotone non-decreasing in `v`.
  static size_t BucketFor(uint64_t v) {
    if (v < kSubBuckets) return static_cast<size_t>(v);
    constexpr uint64_t kMaxValue = (1ull << (kMaxOctave + 1)) - 1;
    if (v > kMaxValue) v = kMaxValue;
    const int octave = 63 - __builtin_clzll(v);
    const uint64_t sub = (v >> (octave - kSubBits)) - kSubBuckets;
    return kSubBuckets +
           static_cast<size_t>(octave - kSubBits) * kSubBuckets +
           static_cast<size_t>(sub);
  }

  /// Smallest value mapping to `bucket`.
  static uint64_t BucketLowerBound(size_t bucket) {
    if (bucket < kSubBuckets) return bucket;
    const size_t g = (bucket - kSubBuckets) >> kSubBits;
    const uint64_t sub = (bucket - kSubBuckets) & (kSubBuckets - 1);
    return (kSubBuckets + sub) << g;
  }

  /// Largest value mapping to `bucket` (inclusive).
  static uint64_t BucketUpperBound(size_t bucket) {
    if (bucket < kSubBuckets) return bucket;
    const size_t g = (bucket - kSubBuckets) >> kSubBits;
    return BucketLowerBound(bucket) + ((1ull << g) - 1);
  }

  /// Bucket counts merged across shards (relaxed loads; consistent between
  /// quiescent points).
  std::vector<uint64_t> MergedCounts() const {
    std::vector<uint64_t> counts(kNumBuckets, 0);
    for (const Shard& s : shards_) {
      for (size_t b = 0; b < kNumBuckets; ++b) {
        counts[b] += s.buckets[b].load(std::memory_order_relaxed);
      }
    }
    return counts;
  }

  /// \brief The bucket containing the nearest-rank percentile sample:
  /// rank = max(1, ceil(p/100 · N)) over the merged counts. Returns 0 when
  /// empty. Deterministic given the counts.
  static size_t PercentileBucket(const std::vector<uint64_t>& counts,
                                 uint64_t total, double p) {
    if (total == 0) return 0;
    const double exact = p / 100.0 * static_cast<double>(total);
    uint64_t rank = static_cast<uint64_t>(exact);
    if (static_cast<double>(rank) < exact) ++rank;  // ceil
    if (rank < 1) rank = 1;
    if (rank > total) rank = total;
    uint64_t cumulative = 0;
    for (size_t b = 0; b < counts.size(); ++b) {
      cumulative += counts[b];
      if (cumulative >= rank) return b;
    }
    return counts.empty() ? 0 : counts.size() - 1;
  }

  /// One merged pass: count, mean, max, and the standard percentile trio.
  struct Summary {
    uint64_t count = 0;
    uint64_t sum_ns = 0;  // exact sum of the samples
    double mean_ns = 0.0;
    uint64_t max_ns = 0;
    uint64_t p50_ns = 0;
    uint64_t p95_ns = 0;
    uint64_t p99_ns = 0;
  };
  Summary Summarize() const {
    Summary out;
    for (const Shard& s : shards_) {
      out.count += s.count.load(std::memory_order_relaxed);
      out.sum_ns += s.sum.load(std::memory_order_relaxed);
      const uint64_t m = s.max.load(std::memory_order_relaxed);
      if (m > out.max_ns) out.max_ns = m;
    }
    if (out.count == 0) return out;
    out.mean_ns =
        static_cast<double>(out.sum_ns) / static_cast<double>(out.count);
    const std::vector<uint64_t> counts = MergedCounts();
    uint64_t total = 0;
    for (uint64_t c : counts) total += c;
    out.p50_ns = BucketUpperBound(PercentileBucket(counts, total, 50.0));
    out.p95_ns = BucketUpperBound(PercentileBucket(counts, total, 95.0));
    out.p99_ns = BucketUpperBound(PercentileBucket(counts, total, 99.0));
    return out;
  }

 private:
  struct Shard {
    std::vector<std::atomic<uint64_t>> buckets;
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> max{0};
  };

  static size_t ShardIndex() {
    static std::atomic<uint32_t> next{0};
    thread_local const uint32_t shard =
        next.fetch_add(1, std::memory_order_relaxed) % kShards;
    return shard;
  }

  Shard shards_[kShards];
};

/// \brief A point-in-time copy of every metric — the value type the future
/// wire front end serializes for a scrape endpoint, and what tests assert
/// against. Plain data; extendable by callers that merge in metrics the
/// registry does not own (pool stats, fault-point counters).
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    double value = 0.0;
  };
  struct HistogramValue {
    std::string name;
    uint64_t count = 0;
    double mean_ns = 0.0;
    uint64_t max_ns = 0;
    uint64_t p50_ns = 0;
    uint64_t p95_ns = 0;
    uint64_t p99_ns = 0;
  };

  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  const CounterValue* FindCounter(const std::string& name) const;
  const GaugeValue* FindGauge(const std::string& name) const;
  const HistogramValue* FindHistogram(const std::string& name) const;

  /// Stable JSON (entries sorted by name): {"counters": {...},
  /// "gauges": {...}, "histograms": {"x": {"count": ..., "p50_ns": ...}}}.
  std::string ToJson() const;
};

/// \brief Named-metric registry: get-or-create handles under a mutex (wiring
/// time only), stable addresses for the life of the registry, snapshot/dump
/// for the scrape surface, and the subsystem's enabled() gate.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(bool enabled = true) : enabled_(enabled) {}

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The telemetry gate instrumented sites poll — one relaxed load. When
  /// false, sites skip clocks, histograms, and traces entirely; functional
  /// counters (admission, cache) are maintained regardless.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Get-or-create by name; the returned pointer is stable for the life of
  /// the registry. Takes the registry mutex — wiring/startup cost, not a
  /// per-event cost.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  LatencyHistogram* GetHistogram(const std::string& name);

  /// Copies every registered metric (names sorted; histogram summaries
  /// computed on the spot).
  MetricsSnapshot Snapshot() const;

 private:
  std::atomic<bool> enabled_;
  mutable std::mutex mu_;
  // Deques give stable element addresses; maps give sorted, named lookup.
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<LatencyHistogram> histograms_;
  std::map<std::string, Counter*> counter_names_;
  std::map<std::string, Gauge*> gauge_names_;
  std::map<std::string, LatencyHistogram*> histogram_names_;
};

}  // namespace obs
}  // namespace osdp

#endif  // OSDP_OBS_METRICS_H_
