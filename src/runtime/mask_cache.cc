#include "src/runtime/mask_cache.h"

#include <algorithm>
#include <cstring>
#include <exception>

#include "src/common/fault.h"

namespace osdp {

namespace {

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

MaskCache::HistogramKey MaskCache::HistogramKey::Of(
    const PreparedHistogramQuery& query, bool non_sensitive) {
  const Domain1D& domain = query.domain();
  HistogramKey key;
  key.non_sensitive = non_sensitive;
  key.column = query.column_index();
  key.categorical = domain.is_categorical();
  key.lo_bits = DoubleBits(domain.lo());
  key.hi_bits = DoubleBits(domain.hi());
  key.bins = domain.size();
  return key;
}

MaskCache::MaskCache(Options options) : options_(options) {
  num_shards_ = std::max<size_t>(options_.num_shards, 1);
  shard_capacity_ = options_.max_bytes / num_shards_;
  shards_ = std::make_unique<Shard[]>(num_shards_);
  const auto resolve = [](obs::Counter* injected, obs::Counter* own) {
    return injected != nullptr ? injected : own;
  };
  hits_ = resolve(options_.hits, &own_hits_);
  misses_ = resolve(options_.misses, &own_misses_);
  evictions_ = resolve(options_.evictions, &own_evictions_);
  aggregate_hits_ = resolve(options_.aggregate_hits, &own_aggregate_hits_);
  aggregate_misses_ =
      resolve(options_.aggregate_misses, &own_aggregate_misses_);
  extensions_ = resolve(options_.extensions, &own_extensions_);
}

size_t MaskCache::EntryBytes(const RowMask& mask,
                             const std::string& canonical) {
  // The mask's heap bytes + the key's canonical bytes + a flat allowance
  // for the list node, index slot, control blocks, and the count memo.
  // Blocks an extension shares with its base are counted in both entries:
  // the sum may overcount memory, but never undercounts it. An
  // approximation is fine: the budget bounds memory, it is not an allocator.
  constexpr size_t kEntryOverhead = 128;
  return mask.HeapBytes() + canonical.size() + kEntryOverhead;
}

size_t MaskCache::HistogramBytes(const Histogram& histogram) {
  // Bin counts + the key, the vector slot, and the control block.
  constexpr size_t kHistogramOverhead = 96;
  return histogram.size() * sizeof(double) + kHistogramOverhead;
}

MaskCache::EntryPtr MaskCache::Touch(Shard& shard, const Entry& entry) {
  // Splice to the LRU front without reallocation.
  shard.lru.splice(shard.lru.begin(), shard.lru, entry.lru_pos_);
  return *entry.lru_pos_;
}

void MaskCache::EvictOverBudget(Shard& shard) {
  while (shard.bytes > shard_capacity_ && shard.lru.size() > 1) {
    Entry& victim = *shard.lru.back();
    shard.bytes -= victim.bytes_;
    victim.resident_ = false;
    auto it = shard.index.find(victim.key_.fingerprint);
    std::vector<Entry*>& same = it->second;
    *std::find(same.begin(), same.end(), &victim) = same.back();
    same.pop_back();
    if (same.empty()) shard.index.erase(it);
    shard.lru.pop_back();
    evictions_->Increment();
  }
}

std::vector<MaskCache::Found> MaskCache::LookupMany(
    const std::vector<const CompiledPredicate*>& preds, uint64_t generation,
    size_t rows, const BatchScan& scan) {
  std::vector<Clause> clauses;
  clauses.reserve(preds.size());
  for (const CompiledPredicate* pred : preds) {
    clauses.push_back(Clause{pred->Fingerprint(), pred->shared_canonical_key()});
  }
  return LookupManyKeyed(clauses, generation, rows, scan);
}

std::vector<MaskCache::Found> MaskCache::LookupManyKeyed(
    const std::vector<Clause>& clauses, uint64_t generation, size_t rows,
    const BatchScan& scan) {
  std::vector<Found> found(clauses.size());
  // A clause to build: its key, its mask (an extension's base words already
  // copied in), the row its scan starts at, and its seeds.
  struct Miss {
    size_t clause = 0;
    Key key;
    RowMask mask;
    size_t row_begin = 0;
    bool extended = false;
    Entry::Seeds seeds;
  };
  std::vector<Miss> misses;
  // repeat_of[i]: the miss an earlier clause of this call made for the same
  // key as clause i, which clause i then shares instead of scanning again.
  constexpr size_t kNoRepeat = ~size_t{0};
  std::vector<size_t> repeat_of(clauses.size(), kNoRepeat);

  for (size_t i = 0; i < clauses.size(); ++i) {
    Key key{clauses[i].fingerprint, generation, clauses[i].canonical};
    for (size_t m = 0; m < misses.size(); ++m) {
      if (misses[m].key == key) {
        repeat_of[i] = m;
        break;
      }
    }
    if (repeat_of[i] != kNoRepeat) continue;
    Probe probe = ProbeKey(key, rows);
    if (probe.hit != nullptr) {
      found[i].entry = std::move(probe.hit);
      found[i].cache_hit = true;
      continue;
    }
    Miss miss;
    miss.clause = i;
    miss.key = std::move(key);
    if (probe.base != nullptr) {
      // The base's blocks carry over by reference: the sealed ones stay
      // shared, and its partial last word is rescanned with the appended
      // rows, to the same bits, into a copy of its last block. The mask
      // holds what it shares, so the base need not stay pinned through the
      // scan.
      miss.mask = probe.base->mask_;
      miss.mask.Resize(rows);
      miss.row_begin = probe.base->mask_.size() & ~size_t{63};
      miss.extended = true;
    } else {
      miss.mask = RowMask(rows);
    }
    miss.seeds = std::move(probe.seeds);
    misses.push_back(std::move(miss));
  }

  // One scan per distinct starting row, outside all cache locks: the scan
  // may itself fan out across the thread pool, and unrelated keys must not
  // serialize behind it. A scan that throws fails every clause it covers.
  std::vector<bool> scanned(misses.size(), false);
  for (size_t m = 0; m < misses.size(); ++m) {
    if (scanned[m]) continue;
    std::vector<size_t> which;
    std::vector<RowMask*> outs;
    for (size_t n = m; n < misses.size(); ++n) {
      if (scanned[n] || misses[n].row_begin != misses[m].row_begin) continue;
      scanned[n] = true;
      which.push_back(misses[n].clause);
      outs.push_back(&misses[n].mask);
    }
    try {
      scan(misses[m].row_begin, which, outs);
    } catch (...) {
      for (size_t c : which) found[c].error = std::current_exception();
    }
  }

  for (Miss& miss : misses) {
    Found& out = found[miss.clause];
    if (out.error != nullptr) continue;
    try {
      out.entry = Insert(std::move(miss.key), std::move(miss.mask),
                         miss.extended, std::move(miss.seeds));
    } catch (...) {
      out.error = std::current_exception();
    }
  }

  // A repeated clause shares its first occurrence's outcome and counts what
  // a serial run would see after that occurrence: a hit once it is cached,
  // a miss when it was too large to cache, nothing when caching is off.
  for (size_t i = 0; i < clauses.size(); ++i) {
    if (repeat_of[i] == kNoRepeat) continue;
    const Found& first = found[misses[repeat_of[i]].clause];
    found[i] = first;
    if (first.entry == nullptr) continue;
    found[i].cache_hit = first.entry->cached_;
    if (first.entry->cached_) {
      hits_->Increment();
    } else if (enabled()) {
      misses_->Increment();
    }
  }
  return found;
}

MaskCache::Probe MaskCache::ProbeKey(const Key& key,
                                     std::optional<size_t> extend_rows) {
  Probe probe;
  if (!enabled()) return probe;
  Shard& shard = ShardFor(key.fingerprint);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key.fingerprint);
  if (it != shard.index.end()) {
    const Entry* newest_older = nullptr;
    for (const Entry* e : it->second) {
      if (e->key_ == key) {
        hits_->Increment();
        probe.hit = Touch(shard, *e);
        return probe;
      }
      // A base must be the same clause (never a mere fingerprint collision),
      // older (a batch that captured g - 1 after g was cached must not
      // extend g backwards), and no longer than this generation.
      if (extend_rows.has_value() && e->key_.generation < key.generation &&
          e->mask_.size() <= *extend_rows && e->key_.SameClause(key) &&
          (newest_older == nullptr ||
           e->key_.generation > newest_older->key_.generation)) {
        newest_older = e;
      }
    }
    if (newest_older != nullptr) {
      // Pin the base for the caller's copy: it may be evicted meanwhile.
      probe.base = *newest_older->lru_pos_;
      probe.seeds.rows = probe.base->mask_.size();
      probe.seeds.count =
          probe.base->non_sensitive_count_.load(std::memory_order_relaxed);
      probe.seeds.histograms = probe.base->histograms_;
    }
  }
  misses_->Increment();
  return probe;
}

MaskCache::EntryPtr MaskCache::Insert(Key key, RowMask mask, bool extended,
                                      Entry::Seeds seeds) {
  if (!enabled()) {
    return EntryPtr(new Entry(std::move(key), std::move(mask),
                              /*cached=*/false, std::move(seeds)));
  }
  // Fault point for the insert path, deliberately *before* the shard lock:
  // a fired fault (or, in spirit, an allocation failure) unwinds without
  // ever touching shard state, so the cache can never be corrupted by a
  // failed insert — the next lookup of this key simply computes again.
  OSDP_FAULT_POINT("mask_cache/insert");
  if (extended) extensions_->Increment();

  const size_t entry_bytes = EntryBytes(mask, *key.canonical);
  if (entry_bytes > shard_capacity_) {
    // Too large to ever fit: serve the computed mask without churning the
    // LRU.
    return EntryPtr(new Entry(std::move(key), std::move(mask),
                              /*cached=*/false, std::move(seeds)));
  }
  std::shared_ptr<Entry> entry(
      new Entry(key, std::move(mask), /*cached=*/true, std::move(seeds)));

  Shard& shard = ShardFor(key.fingerprint);
  std::lock_guard<std::mutex> lock(shard.mu);
  std::vector<Entry*>& same = shard.index[key.fingerprint];
  for (const Entry* e : same) {
    // A racing miss inserted first; adopt its entry — bit-identical to ours
    // by the serial/sharded equivalence contract.
    if (e->key_ == key) return Touch(shard, *e);
  }
  shard.lru.push_front(entry);
  entry->bytes_ = entry_bytes;
  entry->resident_ = true;
  entry->lru_pos_ = shard.lru.begin();
  same.push_back(entry.get());
  shard.bytes += entry_bytes;
  EvictOverBudget(shard);
  return entry;
}

std::shared_ptr<const RowMask> MaskCache::LookupOrCompute(
    const CompiledPredicate& pred, uint64_t generation,
    const std::function<RowMask()>& compute, bool* cache_hit) {
  return LookupOrComputeKeyed(pred.Fingerprint(), pred.shared_canonical_key(),
                              generation, compute, cache_hit);
}

std::shared_ptr<const RowMask> MaskCache::LookupOrComputeKeyed(
    uint64_t fingerprint, std::shared_ptr<const std::string> canonical,
    uint64_t generation, const std::function<RowMask()>& compute,
    bool* cache_hit) {
  Key key{fingerprint, generation, std::move(canonical)};
  // No base is searched for: `compute` builds the whole mask.
  EntryPtr entry = ProbeKey(key, /*extend_rows=*/std::nullopt).hit;
  if (cache_hit != nullptr) *cache_hit = entry != nullptr;
  if (entry == nullptr) {
    entry = Insert(std::move(key), compute(), /*extended=*/false, {});
  }
  const RowMask* mask = &entry->mask();
  return std::shared_ptr<const RowMask>(std::move(entry), mask);
}

size_t MaskCache::NonSensitiveCount(const Entry& entry,
                                    const RangeAggregate<size_t>& compute) {
  const auto fill = [&]() -> size_t {
    const int64_t seed = entry.seeds_.count;
    if (seed < 0) return compute(0);
    return static_cast<size_t>(seed) + compute(entry.seeds_.rows);
  };
  if (!entry.cached_) return fill();
  const int64_t known =
      entry.non_sensitive_count_.load(std::memory_order_relaxed);
  if (known >= 0) {
    aggregate_hits_->Increment();
    return static_cast<size_t>(known);
  }
  aggregate_misses_->Increment();
  const size_t count = fill();
  // Same fault point as a histogram attach: a fire stores nothing.
  OSDP_FAULT_POINT("mask_cache/attach");
  entry.non_sensitive_count_.store(static_cast<int64_t>(count),
                                   std::memory_order_relaxed);
  return count;
}

std::shared_ptr<const Histogram> MaskCache::AggregateHistogram(
    const Entry& entry, const HistogramKey& key,
    const RangeAggregate<Histogram>& compute) {
  const auto find =
      [&key](const Entry::Histograms& in) -> std::shared_ptr<const Histogram> {
    for (const auto& [k, histogram] : in) {
      if (k == key) return histogram;
    }
    return nullptr;
  };
  // The seed, when there is one, plus the rows past it.
  const auto fill = [&](const std::shared_ptr<const Histogram>& seed) {
    if (seed == nullptr) return std::make_shared<const Histogram>(compute(0));
    Histogram sum = compute(entry.seeds_.rows);
    OSDP_CHECK(sum.size() == seed->size());
    for (size_t b = 0; b < sum.size(); ++b) sum.counts()[b] += (*seed)[b];
    return std::make_shared<const Histogram>(std::move(sum));
  };
  // An uncached entry's seeds are never erased, so they are read unlocked.
  if (!entry.cached_) return fill(find(entry.seeds_.histograms));
  Shard& shard = ShardFor(entry.key_.fingerprint);
  std::shared_ptr<const Histogram> seed;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (std::shared_ptr<const Histogram> known = find(entry.histograms_)) {
      aggregate_hits_->Increment();
      return known;
    }
    seed = find(entry.seeds_.histograms);
  }
  aggregate_misses_->Increment();

  // Accumulate outside the lock, like a mask compute.
  std::shared_ptr<const Histogram> histogram = fill(seed);

  // Before the shard lock, like mask_cache/insert: a fire leaves the entry
  // exactly as it was, so the next request for this key computes again.
  OSDP_FAULT_POINT("mask_cache/attach");

  const size_t bytes = HistogramBytes(*histogram);
  std::lock_guard<std::mutex> lock(shard.mu);
  // An evicted entry keeps serving the queries that hold it, but nothing new
  // is charged to a shard it no longer occupies.
  if (!entry.resident_) return histogram;
  // A racing fill attached first; adopt it — bit-identical to ours.
  if (std::shared_ptr<const Histogram> known = find(entry.histograms_)) {
    return known;
  }
  if (entry.bytes_ + bytes > shard_capacity_) return histogram;
  entry.histograms_.emplace_back(key, histogram);
  // The seed has served the one fill it was kept for.
  Entry::Histograms& seeds = entry.seeds_.histograms;
  seeds.erase(std::remove_if(seeds.begin(), seeds.end(),
                             [&key](const auto& s) { return s.first == key; }),
              seeds.end());
  entry.bytes_ += bytes;
  shard.bytes += bytes;
  // The entry was just used: touch it so its own growth evicts colder
  // entries first.
  Touch(shard, entry);
  EvictOverBudget(shard);
  return histogram;
}

MaskCache::Stats MaskCache::stats() const {
  Stats total;
  total.hits = hits_->value();
  total.misses = misses_->value();
  total.evictions = evictions_->value();
  total.aggregate_hits = aggregate_hits_->value();
  total.aggregate_misses = aggregate_misses_->value();
  total.extensions = extensions_->value();
  for (size_t i = 0; i < num_shards_; ++i) {
    const Shard& shard = shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    total.bytes += shard.bytes;
    total.entries += shard.lru.size();
  }
  return total;
}

}  // namespace osdp
