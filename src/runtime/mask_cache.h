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
//     A histogram with no WHERE clause keys the TRUE clause
//     (PreparedHistogramQuery::where()), so it shares the entry of a
//     Predicate::True() count.
//     Fingerprints are 64-bit hashes, so every hash match is confirmed by
//     deep structural equality (byte comparison of the canonical encodings)
//     before it counts as a hit: a collision is a miss, stored alongside.
//   * Entries are immutable once filled, like the snapshots they derive
//     from, and ingest never invalidates one in place: a new generation keys
//     new entries, and superseded generations leave through the LRU.
//   * A new generation is not a cold start, though. Ingest only appends and
//     the policy is fixed, so generation g's rows and non-sensitive bits are
//     an immutable prefix of every later generation's (docs/storage.md).
//     Hence a miss for (clause, g) through LookupMany first looks for the
//     newest resident entry of the *same* clause (deep-equal
//     canonical bytes, never a mere fingerprint match) at an older
//     generation g' < g whose n_g' rows fit in g's. It builds g's mask from
//     a copy of that base's mask, which shares the base's 4096-row word
//     blocks (src/data/row_mask.h): it writes only the base's partial last
//     block (copied first) and new blocks, scanning only rows
//     [floor64(n_g'), n_g) — the base's partial last word is rescanned to
//     the same bits. The entry also takes the base's filled aggregates as
//     seeds, so the first fill of each is its seed plus a pass over rows
//     [n_g', n_g) alone; a seed is dropped once its aggregate attaches. The
//     new entry holds no pointer to the base entry, so the base still ages
//     out; the blocks the two share live until both are gone. EntryBytes
//     charges each entry its mask's RowMask::HeapBytes — every block run it
//     references, shared or not — so the budget may overcount memory but
//     never undercounts it.
//     Seeds are not charged to the byte budget: they are the base's own
//     aggregates, bounded by one set per entry and freed as fills attach.
//     Every extended value equals a cold scan bit for bit: the mask words
//     are the same computation, and the aggregates are integer counts held
//     in doubles, which add exactly below 2^53.
//   * The aggregates are memoized against the caller's companion mask, which
//     must itself be a function of the generation: QueryService passes the
//     snapshot's non_sensitive mask, fixed per generation because the policy
//     is fixed for the service's lifetime — and, for the seeds to be valid,
//     each generation's companion must extend the last one's as a prefix.
//     Histograms are further keyed by HistogramKey — which rows (WHERE or
//     WHERE ∧ x_ns), the grouped column, and the exact bits of the binning —
//     so one WHERE clause binned two ways holds two histograms.
//   * Histogram bytes are charged to the entry's shard when attached and
//     leave with the entry when it is evicted. A count is one atomic on the
//     entry (−1 while unknown) and is covered by the entry's flat overhead.
//
// Concurrency: a sharded-lock LRU with a byte budget, sharded by fingerprint
// alone so every generation of a clause sits under one shard lock and the
// base search is the same probe as the hit test. Lookups and inserts take
// one shard mutex; compute runs outside any lock, so two racing misses
// on one key may both compute — they produce bit-identical values (the
// serial/sharded equivalence contract of src/runtime/parallel_scan.h), and
// whichever insert lands second adopts the first's. The same holds for two
// racing fills of one aggregate. A compute that throws (deadline, cancel,
// injected fault) stores nothing, so the next lookup computes again.
//
// Batch lookups: LookupMany probes a batch's clauses in order, then builds
// every miss that starts at the same row — row 0 for a cold miss, a base's
// last word boundary for an extension — with one scan call, which the
// service runs as one chunk-at-a-time pass over all of them, and inserts
// each. A clause repeated in the batch is built once and its repeats count
// as hits. Counters, entries and hit flags are those of the same clauses
// looked up one per call, in the same order. A failure fails only the
// clauses it touched: a scan's, every clause of its group; an insert's, that
// clause. The exception is handed back per clause, and nothing is stored for
// a failed clause.
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
#include <exception>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
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

    bool SameClause(const Key& other) const {
      return fingerprint == other.fingerprint &&
             (canonical == other.canonical || *canonical == *other.canonical);
    }
    bool operator==(const Key& other) const {
      return generation == other.generation && SameClause(other);
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
    /// Misses served by extending an older generation's entry (a subset of
    /// `misses`).
    obs::Counter* extensions = nullptr;
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
    uint64_t extensions = 0;
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

  /// Scans rows [row_begin, rows) of a generation for several clauses in one
  /// pass: outs[k] (sized `rows`) takes clause which[k], where `which` holds
  /// ascending indices into the batch lookup's clause list. Every word
  /// before `row_begin` — a multiple of 64 — is left untouched.
  using BatchScan =
      std::function<void(size_t row_begin, const std::vector<size_t>& which,
                         const std::vector<RowMask*>& outs)>;

  /// An exact aggregate over rows [row_begin, rows) of a generation.
  template <typename T>
  using RangeAggregate = std::function<T(size_t row_begin)>;

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

    // The aggregates an extended entry inherits from its base: each covers
    // the base's first `rows` rows. Empty (rows 0) for a cold entry.
    struct Seeds {
      size_t rows = 0;
      int64_t count = -1;  // −1 when the base had no count
      Histograms histograms;
    };

    Entry(Key key, RowMask mask, bool cached, Seeds seeds)
        : key_(std::move(key)),
          mask_(std::move(mask)),
          cached_(cached),
          seeds_(std::move(seeds)) {}

    const Key key_;
    const RowMask mask_;
    // False for an entry served uncached: its aggregates are never stored.
    const bool cached_;
    // Guarded by the owning shard's mutex: a histogram seed is erased when
    // its aggregate attaches. `rows` and `count` never change.
    mutable Seeds seeds_;
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

  /// One clause's identity in a raw-key lookup: `fingerprint` must be the
  /// hash of `*canonical` under the caller's scheme, and `canonical` the
  /// exact structural identity — a fingerprint match with different
  /// canonical bytes is a collision: it misses, and it is never a base to
  /// extend. Tests fabricate clauses to exercise collision handling.
  struct Clause {
    uint64_t fingerprint = 0;
    std::shared_ptr<const std::string> canonical;
  };

  /// One clause's outcome in a batch lookup: its entry and whether it was
  /// served from the cache, or — entry null — the exception its scan or its
  /// insert threw.
  struct Found {
    EntryPtr entry;
    bool cache_hit = false;
    std::exception_ptr error;
  };

  explicit MaskCache(Options options);

  /// True when the byte budget is non-zero (a zero-budget cache computes
  /// every call and stores nothing).
  bool enabled() const { return options_.max_bytes > 0; }

  /// \brief Returns the entries for `preds` over `generation`, whose table
  /// has `rows` rows, probing each clause once in order. A miss is built
  /// from the newest resident entry of the same clause at an older
  /// generation — its words copied, the scan run from that entry's last word
  /// boundary — or, with no such entry, scanned from row 0; then cached. The
  /// caller promises that each generation's rows extend every older one's
  /// (see "Keying and invalidation"). The misses that start at the same row
  /// share one `scan` call, run outside all cache locks, so a batch of new
  /// clauses reads the table once. A clause repeated in the call is built
  /// once, and its later occurrences count as hits. Counters and every
  /// returned entry and hit flag (false on every miss, extensions included)
  /// equal those of the clauses looked up one per call, in order. Failures
  /// stay per clause: a throwing scan fails the clauses it covers, and a
  /// throwing insert (mask_cache/insert) only its own clause (with its
  /// repeats); neither stores anything.
  std::vector<Found> LookupMany(
      const std::vector<const CompiledPredicate*>& preds, uint64_t generation,
      size_t rows, const BatchScan& scan);

  /// LookupMany by raw keys (see Clause).
  std::vector<Found> LookupManyKeyed(const std::vector<Clause>& clauses,
                                     uint64_t generation, size_t rows,
                                     const BatchScan& scan);

  /// Mask-only lookups for callers that read no aggregate: `compute` builds
  /// the whole mask on a miss (never an extension). The returned pointer
  /// shares ownership of the entry.
  std::shared_ptr<const RowMask> LookupOrCompute(
      const CompiledPredicate& pred, uint64_t generation,
      const std::function<RowMask()>& compute, bool* cache_hit = nullptr);
  std::shared_ptr<const RowMask> LookupOrComputeKeyed(
      uint64_t fingerprint, std::shared_ptr<const std::string> canonical,
      uint64_t generation, const std::function<RowMask()>& compute,
      bool* cache_hit = nullptr);

  /// \brief |entry.mask() ∧ companion|, memoized on `entry`: `compute`
  /// runs only while the value is unknown, outside all locks, and its result
  /// is stored unless it throws. An extended entry with a count seed asks
  /// `compute` for the rows past the seed only and adds the seed.
  size_t NonSensitiveCount(const Entry& entry,
                           const RangeAggregate<size_t>& compute);

  /// \brief The histogram `key` names, memoized on `entry`: `compute` runs
  /// only while no histogram under `key` is attached, outside all locks —
  /// over the rows past the seed when the entry holds a seed for `key`,
  /// which is then added bin by bin. Attaching charges the histogram's bytes
  /// to the entry's shard and may evict that shard's LRU tail; a histogram
  /// that cannot fit, or whose entry was evicted meanwhile, is served
  /// without being stored.
  std::shared_ptr<const Histogram> AggregateHistogram(
      const Entry& entry, const HistogramKey& key,
      const RangeAggregate<Histogram>& compute);

  /// Aggregated view: the counter cells plus bytes/entries summed across
  /// shards under their locks — a consistent-enough composite for assertions
  /// between quiescent points.
  Stats stats() const;

 private:
  using LruList = std::list<std::shared_ptr<Entry>>;

  struct Shard {
    mutable std::mutex mu;
    LruList lru;  // front = most recently used; owns the entries
    // Resident entries by fingerprint: every generation of a clause (and any
    // colliding clause) in one short list.
    std::unordered_map<uint64_t, std::vector<Entry*>> index;
    size_t bytes = 0;
  };

  Shard& ShardFor(uint64_t fingerprint) {
    // The fingerprint is already avalanched.
    return shards_[fingerprint % num_shards_];
  }

  // The outcome of probing one key under its shard lock: a hit, or a miss
  // that, when `base` is set, extends it — the newest resident entry of the
  // same clause at an older generation with at most *extend_rows rows,
  // pinned until the caller copies its mask, its aggregates taken as
  // `seeds`. No base is searched for without `extend_rows`. Counts the hit
  // or miss; a disabled cache finds and counts nothing.
  struct Probe {
    EntryPtr hit;
    EntryPtr base;
    Entry::Seeds seeds;
  };
  Probe ProbeKey(const Key& key, std::optional<size_t> extend_rows);

  // Stores a freshly built mask under `key` (or adopts a racing insert's
  // entry) and returns it; uncached when disabled or too large for a shard.
  // Hits the mask_cache/insert fault point before touching any shard.
  EntryPtr Insert(Key key, RowMask mask, bool extended, Entry::Seeds seeds);

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
  obs::Counter own_extensions_;
  // Resolved targets: either the injected cells or the fallbacks above.
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Counter* aggregate_hits_ = nullptr;
  obs::Counter* aggregate_misses_ = nullptr;
  obs::Counter* extensions_ = nullptr;
};

}  // namespace osdp

#endif  // OSDP_RUNTIME_MASK_CACHE_H_
