// MaskCache: a generation-aware result cache for compiled-predicate scan
// masks and the exact aggregates of the rows they select — the "Result
// caching" subsystem of the concurrent runtime.
//
// OSDP's accounting is per-release (Theorem 3.3 composes the ε of every
// answer, whether or not its inputs were recomputed), so reusing an
// already-computed deterministic value is privacy-neutral: the noisy release
// stage still draws fresh noise from its own (session, seq, generation)
// stream, and the ledger records the same charge either way. An OSDP count
// is |WHERE ∧ x_ns| plus one-sided noise, and a histogram mechanism reads the
// exact x and/or x_ns histograms of the WHERE rows (Sections 5.1–5.2): every
// one of those is a deterministic function of (predicate, generation). So an
// entry holds the WHERE mask *and* those aggregates, filled lazily the first
// time a query needs each one. A repeated analyst query against an unchanged
// snapshot pays one lookup plus its noise — no scan, no AND + popcount, no
// accumulation walk.
//
// Keying and invalidation:
//
//   * Entries are keyed by (CompiledPredicate::Fingerprint(), snapshot
//     generation). The fingerprint is canonical — stable across the parse
//     order of commutative AND/OR legs — so And(a, b) and And(b, a) share an
//     entry; their masks are bit-identical, so the shared value is exact.
//     Fingerprints are 64-bit hashes, so every hash match is confirmed by
//     deep structural equality (byte comparison of the canonical encodings)
//     before it counts as a hit: a collision is a miss, stored alongside.
//   * Entries are immutable once filled, like the snapshots they derive
//     from. Ingest never invalidates in place: a new generation simply keys
//     new entries, and entries of superseded generations age out through the
//     LRU as traffic moves on. Chunked copy-on-write storage keeps this
//     sound: generations share chunks, but a generation's rows are immutable
//     for as long as any pin holds it, so a cached mask for (pred, g) stays a
//     faithful scan of generation g however many later generations extend
//     the shared chunks.
//   * The aggregates are memoized against the caller's companion mask, which
//     must itself be a function of the generation: QueryService passes the
//     snapshot's non_sensitive mask, fixed per generation because the policy
//     is fixed for the service's lifetime. Histograms are further keyed by
//     HistogramKey — which rows (WHERE or WHERE ∧ x_ns), the grouped column,
//     and the exact bits of the binning — so one WHERE clause binned two ways
//     holds two histograms.
//   * Histogram bytes are charged to the entry's shard when attached and
//     leave with the entry when it is evicted. A count is one atomic on the
//     entry (−1 while unknown) and is covered by the entry's flat overhead.
//
// Concurrency: a sharded-lock LRU with a byte budget. Lookups and inserts
// take one shard mutex; compute runs outside any lock, so two racing misses
// on one key may both compute — they produce bit-identical values (the
// serial/sharded equivalence contract of src/runtime/parallel_scan.h), and
// whichever insert lands second adopts the first's. The same holds for two
// racing fills of one aggregate. A compute that throws (deadline, cancel,
// injected fault) stores nothing, so the next lookup computes again.
//
// Disabled (max_bytes = 0) or for a mask too large for its shard, the
// lookup returns an *uncached* entry: it holds the freshly computed mask,
// and every aggregate requested through it is computed and never stored.
// Bit-identity of every cached answer to the cold path is pinned by
// tests/mask_cache_test.cc and the cache-enabled stress harness in
// tests/query_service_test.cc.

#ifndef OSDP_RUNTIME_MASK_CACHE_H_
#define OSDP_RUNTIME_MASK_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/data/compiled_predicate.h"
#include "src/data/row_mask.h"
#include "src/hist/histogram.h"
#include "src/hist/histogram_query.h"
#include "src/obs/metrics.h"

namespace osdp {

/// \brief Sharded-lock LRU cache of predicate scan masks and their memoized
/// exact aggregates, keyed by (canonical predicate fingerprint, snapshot
/// generation), bounded by a byte budget. Thread-safe throughout.
class MaskCache {
 private:
  struct Key {
    uint64_t fingerprint = 0;
    uint64_t generation = 0;
    // Deep structural identity behind the fingerprint; shared with the
    // CompiledPredicate that created the key, so keys never copy the bytes.
    std::shared_ptr<const std::string> canonical;

    bool operator==(const Key& other) const {
      return fingerprint == other.fingerprint &&
             generation == other.generation &&
             (canonical == other.canonical || *canonical == *other.canonical);
    }
  };

 public:
  /// Cache configuration.
  struct Options {
    /// Total byte budget across all shards; 0 disables caching entirely
    /// (lookups compute and store nothing, and count nothing).
    size_t max_bytes = 64ull << 20;
    /// Number of independently-locked shards (minimum 1). Each shard holds
    /// max_bytes / num_shards bytes and its own LRU order.
    size_t num_shards = 8;
    /// Optional externally-owned counter cells (e.g. from a
    /// obs::MetricsRegistry) so hit/miss/eviction totals flow straight into
    /// the owner's metric namespace. Null pointers fall back to cells owned
    /// by the cache itself; either way the counters are functional (always
    /// maintained — the telemetry enable gate does not apply) and uniform:
    /// relaxed-atomic obs::Counter increments, exact under concurrency.
    obs::Counter* hits = nullptr;
    obs::Counter* misses = nullptr;
    obs::Counter* evictions = nullptr;
    /// Aggregate memo lookups through cached entries: served from the entry
    /// vs computed. Uncached entries count neither.
    obs::Counter* aggregate_hits = nullptr;
    obs::Counter* aggregate_misses = nullptr;
  };

  /// Counters for tests, benches, and operators. `bytes`/`entries` are the
  /// current totals; the rest are cumulative.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    size_t bytes = 0;
    size_t entries = 0;
    uint64_t aggregate_hits = 0;
    uint64_t aggregate_misses = 0;
  };

  /// Identity of an exact histogram memoized on an entry: the selected rows
  /// (the entry's mask, or the mask ANDed with the companion mask), the
  /// grouped column's schema index, and the binning, compared bit for bit.
  struct HistogramKey {
    bool non_sensitive = false;
    size_t column = 0;
    bool categorical = false;
    uint64_t lo_bits = 0;
    uint64_t hi_bits = 0;
    size_t bins = 0;

    /// The key of `query`'s x (or, with `non_sensitive`, x_ns) histogram.
    static HistogramKey Of(const PreparedHistogramQuery& query,
                           bool non_sensitive);

    bool operator==(const HistogramKey& other) const {
      return non_sensitive == other.non_sensitive && column == other.column &&
             categorical == other.categorical && lo_bits == other.lo_bits &&
             hi_bits == other.hi_bits && bins == other.bins;
    }
  };

  /// \brief One scan mask plus the aggregates memoized on it. Handed out as
  /// shared_ptr<const Entry>: the mask is immutable, and the memo fields are
  /// only ever written through the owning cache, once per aggregate.
  class Entry {
   public:
    const RowMask& mask() const { return mask_; }

   private:
    friend class MaskCache;
    using Histograms =
        std::vector<std::pair<HistogramKey, std::shared_ptr<const Histogram>>>;

    Entry(Key key, RowMask mask, bool cached)
        : key_(std::move(key)), mask_(std::move(mask)), cached_(cached) {}

    const Key key_;
    const RowMask mask_;
    // False for an entry served uncached: its aggregates are never stored.
    const bool cached_;
    // |mask ∧ companion|, or −1 while unknown. Written once per fill; racing
    // fills store the same value.
    mutable std::atomic<int64_t> non_sensitive_count_{-1};
    // Guarded by the owning shard's mutex.
    mutable Histograms histograms_;
    mutable size_t bytes_ = 0;       // mask + key + attached histograms
    mutable bool resident_ = false;  // in the shard's LRU
    mutable std::list<std::shared_ptr<Entry>>::iterator lru_pos_;
  };
  using EntryPtr = std::shared_ptr<const Entry>;

  explicit MaskCache(Options options);

  /// True when the byte budget is non-zero (a zero-budget cache computes
  /// every call and stores nothing).
  bool enabled() const { return options_.max_bytes > 0; }

  /// \brief Returns the entry for (`pred`, `generation`), computing its mask
  /// via `compute` on a miss and caching the result. `compute` runs outside
  /// all cache locks. `cache_hit`, when non-null, reports whether the mask
  /// was served from the cache (false on every miss, including collision
  /// misses and racing double-computes).
  EntryPtr Lookup(const CompiledPredicate& pred, uint64_t generation,
                  const std::function<RowMask()>& compute,
                  bool* cache_hit = nullptr);

  /// \brief The raw-key form: `fingerprint` must be the hash of `*canonical`
  /// under the caller's scheme, and `canonical` the exact structural
  /// identity — a fingerprint match with different canonical bytes is a
  /// collision and misses. This is the hook tests use to exercise collision
  /// handling with fabricated keys; Lookup delegates here.
  EntryPtr LookupKeyed(uint64_t fingerprint,
                       std::shared_ptr<const std::string> canonical,
                       uint64_t generation,
                       const std::function<RowMask()>& compute,
                       bool* cache_hit = nullptr);

  /// The mask-only forms of Lookup / LookupKeyed, for callers that read no
  /// aggregate: the returned pointer shares ownership of the entry.
  std::shared_ptr<const RowMask> LookupOrCompute(
      const CompiledPredicate& pred, uint64_t generation,
      const std::function<RowMask()>& compute, bool* cache_hit = nullptr);
  std::shared_ptr<const RowMask> LookupOrComputeKeyed(
      uint64_t fingerprint, std::shared_ptr<const std::string> canonical,
      uint64_t generation, const std::function<RowMask()>& compute,
      bool* cache_hit = nullptr);

  /// \brief |entry.mask() ∧ companion|, memoized on `entry`: `compute` runs
  /// only while the value is unknown, outside all locks, and its result is
  /// stored unless it throws.
  size_t NonSensitiveCount(const Entry& entry,
                           const std::function<size_t()>& compute);

  /// \brief The histogram `key` names, memoized on `entry`: `compute` runs
  /// only while no histogram under `key` is attached, outside all locks.
  /// Attaching charges the histogram's bytes to the entry's shard and may
  /// evict that shard's LRU tail; a histogram that cannot fit, or whose
  /// entry was evicted meanwhile, is served without being stored.
  std::shared_ptr<const Histogram> AggregateHistogram(
      const Entry& entry, const HistogramKey& key,
      const std::function<Histogram()>& compute);

  /// Aggregated view: the counter cells plus bytes/entries summed across
  /// shards under their locks — a consistent-enough composite for assertions
  /// between quiescent points.
  Stats stats() const;

 private:
  struct KeyHash {
    size_t operator()(const Key& k) const {
      // The fingerprint is already avalanched; fold in the generation.
      uint64_t h = k.fingerprint;
      h ^= k.generation + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
      return static_cast<size_t>(h);
    }
  };

  using LruList = std::list<std::shared_ptr<Entry>>;

  struct Shard {
    mutable std::mutex mu;
    LruList lru;  // front = most recently used; owns the entries
    std::unordered_map<Key, Entry*, KeyHash> index;
    size_t bytes = 0;
  };

  Shard& ShardFor(const Key& key) {
    return shards_[KeyHash{}(key) % num_shards_];
  }

  static size_t EntryBytes(const RowMask& mask, const std::string& canonical);
  static size_t HistogramBytes(const Histogram& histogram);

  // Moves a resident `entry` to the LRU front and returns it. Caller holds
  // shard.mu.
  static EntryPtr Touch(Shard& shard, const Entry& entry);
  // Drops LRU-tail entries until `shard` fits its budget (never the last
  // entry). Caller holds shard.mu.
  void EvictOverBudget(Shard& shard);

  Options options_;
  size_t num_shards_ = 1;
  size_t shard_capacity_ = 0;
  // Shards hold mutexes (immovable), so they live in a fixed array.
  std::unique_ptr<Shard[]> shards_;
  // Fallback counter cells when Options does not inject external ones.
  obs::Counter own_hits_;
  obs::Counter own_misses_;
  obs::Counter own_evictions_;
  obs::Counter own_aggregate_hits_;
  obs::Counter own_aggregate_misses_;
  // Resolved targets: either the injected cells or the fallbacks above.
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Counter* aggregate_hits_ = nullptr;
  obs::Counter* aggregate_misses_ = nullptr;
};

}  // namespace osdp

#endif  // OSDP_RUNTIME_MASK_CACHE_H_
