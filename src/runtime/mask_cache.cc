#include "src/runtime/mask_cache.h"

#include <algorithm>
#include <cstring>

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
}

size_t MaskCache::EntryBytes(const RowMask& mask,
                             const std::string& canonical) {
  // Mask words + the key's canonical bytes + a flat allowance for the list
  // node, map slot, control blocks, and the count memo. An approximation is
  // fine: the budget bounds memory, it is not an allocator.
  constexpr size_t kEntryOverhead = 128;
  return mask.num_words() * sizeof(uint64_t) + canonical.size() +
         kEntryOverhead;
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
    shard.index.erase(victim.key_);
    shard.lru.pop_back();
    evictions_->Increment();
  }
}

MaskCache::EntryPtr MaskCache::Lookup(const CompiledPredicate& pred,
                                      uint64_t generation,
                                      const std::function<RowMask()>& compute,
                                      bool* cache_hit) {
  return LookupKeyed(pred.Fingerprint(), pred.shared_canonical_key(),
                     generation, compute, cache_hit);
}

MaskCache::EntryPtr MaskCache::LookupKeyed(
    uint64_t fingerprint, std::shared_ptr<const std::string> canonical,
    uint64_t generation, const std::function<RowMask()>& compute,
    bool* cache_hit) {
  if (cache_hit != nullptr) *cache_hit = false;
  Key key{fingerprint, generation, std::move(canonical)};
  if (!enabled()) {
    return EntryPtr(new Entry(std::move(key), compute(), /*cached=*/false));
  }
  Shard& shard = ShardFor(key);

  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      hits_->Increment();
      if (cache_hit != nullptr) *cache_hit = true;
      return Touch(shard, *it->second);
    }
    misses_->Increment();
  }

  // Compute outside the lock: the scan may itself fan out across the thread
  // pool, and unrelated keys in this shard must not serialize behind it.
  RowMask mask = compute();

  // Fault point for the insert path, deliberately *before* the shard lock:
  // a fired fault (or, in spirit, an allocation failure) unwinds without
  // ever touching shard state, so the cache can never be corrupted by a
  // failed insert — the next lookup of this key simply computes again.
  OSDP_FAULT_POINT("mask_cache/insert");

  const size_t entry_bytes = EntryBytes(mask, *key.canonical);
  if (entry_bytes > shard_capacity_) {
    // Too large to ever fit: serve the computed mask without churning the
    // LRU.
    return EntryPtr(new Entry(std::move(key), std::move(mask),
                              /*cached=*/false));
  }
  std::shared_ptr<Entry> entry(new Entry(key, std::move(mask),
                                         /*cached=*/true));

  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // A racing miss inserted first; adopt its entry — bit-identical to ours
    // by the serial/sharded equivalence contract.
    return Touch(shard, *it->second);
  }
  shard.lru.push_front(entry);
  entry->bytes_ = entry_bytes;
  entry->resident_ = true;
  entry->lru_pos_ = shard.lru.begin();
  shard.index.emplace(std::move(key), entry.get());
  shard.bytes += entry_bytes;
  EvictOverBudget(shard);
  return entry;
}

std::shared_ptr<const RowMask> MaskCache::LookupOrCompute(
    const CompiledPredicate& pred, uint64_t generation,
    const std::function<RowMask()>& compute, bool* cache_hit) {
  EntryPtr entry = Lookup(pred, generation, compute, cache_hit);
  const RowMask* mask = &entry->mask();
  return std::shared_ptr<const RowMask>(std::move(entry), mask);
}

std::shared_ptr<const RowMask> MaskCache::LookupOrComputeKeyed(
    uint64_t fingerprint, std::shared_ptr<const std::string> canonical,
    uint64_t generation, const std::function<RowMask()>& compute,
    bool* cache_hit) {
  EntryPtr entry = LookupKeyed(fingerprint, std::move(canonical), generation,
                               compute, cache_hit);
  const RowMask* mask = &entry->mask();
  return std::shared_ptr<const RowMask>(std::move(entry), mask);
}

size_t MaskCache::NonSensitiveCount(const Entry& entry,
                                    const std::function<size_t()>& compute) {
  if (!entry.cached_) return compute();
  const int64_t known =
      entry.non_sensitive_count_.load(std::memory_order_relaxed);
  if (known >= 0) {
    aggregate_hits_->Increment();
    return static_cast<size_t>(known);
  }
  aggregate_misses_->Increment();
  const size_t count = compute();
  // Same fault point as a histogram attach: a fire stores nothing.
  OSDP_FAULT_POINT("mask_cache/attach");
  entry.non_sensitive_count_.store(static_cast<int64_t>(count),
                                   std::memory_order_relaxed);
  return count;
}

std::shared_ptr<const Histogram> MaskCache::AggregateHistogram(
    const Entry& entry, const HistogramKey& key,
    const std::function<Histogram()>& compute) {
  if (!entry.cached_) return std::make_shared<const Histogram>(compute());
  Shard& shard = ShardFor(entry.key_);
  const auto find = [&]() -> std::shared_ptr<const Histogram> {
    for (const auto& [k, histogram] : entry.histograms_) {
      if (k == key) return histogram;
    }
    return nullptr;
  };
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (std::shared_ptr<const Histogram> known = find()) {
      aggregate_hits_->Increment();
      return known;
    }
  }
  aggregate_misses_->Increment();

  // Accumulate outside the lock, like a mask compute.
  auto histogram = std::make_shared<const Histogram>(compute());

  // Before the shard lock, like mask_cache/insert: a fire leaves the entry
  // exactly as it was, so the next request for this key computes again.
  OSDP_FAULT_POINT("mask_cache/attach");

  const size_t bytes = HistogramBytes(*histogram);
  std::lock_guard<std::mutex> lock(shard.mu);
  // An evicted entry keeps serving the queries that hold it, but nothing new
  // is charged to a shard it no longer occupies.
  if (!entry.resident_) return histogram;
  // A racing fill attached first; adopt it — bit-identical to ours.
  if (std::shared_ptr<const Histogram> known = find()) return known;
  if (entry.bytes_ + bytes > shard_capacity_) return histogram;
  entry.histograms_.emplace_back(key, histogram);
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
  for (size_t i = 0; i < num_shards_; ++i) {
    const Shard& shard = shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    total.bytes += shard.bytes;
    total.entries += shard.lru.size();
  }
  return total;
}

}  // namespace osdp
