// Layered replay for bench_service_load: re-executes delivered QueryService
// requests one at a time through the public entry point of every layer the
// service calls, in the service's order, and times each call from outside.
//
//   data.compile          CompiledPredicate::Compile /
//                         PreparedHistogramQuery::Prepare      (Validate)
//   accounting.reserve    BudgetReservation::Acquire + Commit  (Reserve)
//   runtime.cache_lookup  MaskCache::LookupOrCompute, minus the scan it runs
//   runtime.scan          ParallelEvalMask on a cache miss
//   runtime.combine       mask copy + ParallelAndWith (+ ParallelCount)
//   hist.accumulate       ParallelAccumulateHistogram for x and x_ns
//   mech.release          the count's one-sided Laplace draw, or
//                         OsdpEngine::RunMechanism
//   accounting.ledger     SharedLedger::Record
//
// Each call is bracketed by its own clock reads. Time between the first and
// the last read of a request that no call claims (labels, seeding, pointer
// plumbing, the clock reads themselves) is the `glue` row, so the rows add
// up to the measured replay time; a large glue share means replay work the
// list does not name. (Service time outside the named stages, such as lock
// waits, is measured on the service's own traces, not here.) Every replayed
// answer must equal the service's answer bit for bit, which proves the
// attribution timed the same computation the service ran.

#ifndef OSDP_BENCH_SERVICE_LOAD_LAYERS_H_
#define OSDP_BENCH_SERVICE_LOAD_LAYERS_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "src/accounting/concurrent.h"
#include "src/common/distributions.h"
#include "src/core/engine.h"
#include "src/data/compiled_predicate.h"
#include "src/obs/metrics.h"
#include "src/runtime/mask_cache.h"
#include "src/runtime/parallel_scan.h"
#include "src/runtime/query_service.h"

namespace osdp {
namespace service_load {

/// Nearest-rank percentile (p in [0, 100]) of `v`; 0 for an empty sample.
/// The same rule as bench/bench_common.h, kept here on purpose: every metric
/// definition of this benchmark lives under bench/service_load, so a change
/// elsewhere in the repository cannot change how the benchmark measures.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double exact = p / 100.0 * static_cast<double>(v.size());
  size_t rank = static_cast<size_t>(exact);
  if (static_cast<double>(rank) < exact) ++rank;
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// Bitwise equality of two doubles (NaN-safe, distinguishes -0.0).
inline bool SameBits(double a, double b) {
  uint64_t x = 0;
  uint64_t y = 0;
  std::memcpy(&x, &a, sizeof x);
  std::memcpy(&y, &b, sizeof y);
  return x == y;
}

inline bool SameBits(const std::vector<double>& a,
                     const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i], b[i])) return false;
  }
  return true;
}

/// Which histograms a mechanism reads: x (all rows) for the DP mechanisms,
/// x_ns (non-sensitive rows) for the one-sided ones, both for DAWAz. The
/// service keeps the same table in ExecuteImpl.
inline bool NeedsX(EngineMechanism m) {
  return m == EngineMechanism::kLaplace || m == EngineMechanism::kDawa ||
         m == EngineMechanism::kDawaz || m == EngineMechanism::kHierarchical;
}
inline bool NeedsXns(EngineMechanism m) {
  return m == EngineMechanism::kOsdpLaplace ||
         m == EngineMechanism::kOsdpLaplaceL1 || m == EngineMechanism::kDawaz;
}

enum Layer : size_t {
  kCompile = 0,
  kReserve,
  kCacheLookup,
  kScan,
  kCombine,
  kAccumulate,
  kMechanism,
  kLedger,
  kNumLayers,
};

inline const char* LayerName(size_t layer) {
  static constexpr const char* kNames[kNumLayers] = {
      "data.compile",    "accounting.reserve", "runtime.cache_lookup",
      "runtime.scan",    "runtime.combine",    "hist.accumulate",
      "mech.release",    "accounting.ledger"};
  return kNames[layer];
}

/// A summary value and its unit.
struct LayerMetric {
  double value;
  const char* unit;
};

/// One delivered answer to re-execute: the request as sent, the snapshot it
/// was answered against, its replay key, and the service's answer bits.
struct ReplayTarget {
  ServiceRequest request;
  SnapshotPtr snapshot;
  QueryService::SessionId session = 0;
  uint64_t seq = 0;
  bool cache_hit = false;
  double count = 0.0;
  std::vector<double> histogram;
};

/// \brief Serial, outside-in timing of the service's layers over a sample of
/// delivered requests.
///
/// Owns its own budgets, ledger and mask cache, so replaying never touches
/// the service's books. `mech_engine` supplies RunMechanism with the
/// service's mechanism options; `pool` should be the service's pool, idle.
class LayeredReplay {
 public:
  LayeredReplay(const OsdpEngine* mech_engine, Policy policy,
                uint64_t root_seed, ThreadPool* pool, size_t cache_bytes)
      : mech_engine_(mech_engine),
        policy_(std::move(policy)),
        root_seed_(root_seed),
        scan_{pool, 0, nullptr},
        session_budget_(1e300),
        service_budget_(1e300),
        cache_(MaskCache::Options{cache_bytes, 8, nullptr, nullptr, nullptr}) {
  }

  /// Fills the replay cache with `count` placeholder masks of `rows` bits
  /// under keys no real predicate has, so inserts made while replaying evict
  /// as they did in a full service cache.
  void PrefillCache(size_t count, size_t rows) {
    for (size_t i = 0; i < count; ++i) {
      auto canonical = std::make_shared<const std::string>(
          "service_load/prefill/" + std::to_string(i));
      cache_.LookupOrComputeKeyed(~uint64_t{0} - i, canonical, ~uint64_t{0},
                                  [rows] { return RowMask(rows); });
    }
  }

  /// Re-executes `t`, adding each layer's time to the totals. Returns false
  /// if the replayed answer differs from the service's in any bit.
  bool Replay(const ReplayTarget& t) {
    const Snapshot& snap = *t.snapshot;
    const auto* count_req = std::get_if<CountRequest>(&t.request);
    const auto* hist_req = std::get_if<HistogramRequest>(&t.request);
    const double epsilon =
        count_req != nullptr ? count_req->epsilon : hist_req->epsilon;

    // A service hit found the mask already cached; recreate that state
    // before the clock starts.
    if (t.cache_hit) {
      const Predicate& where =
          count_req != nullptr ? count_req->where : *hist_req->query.where;
      const CompiledPredicate warm =
          *CompiledPredicate::Compile(where, snap.table.schema());
      cache_.LookupOrCompute(warm, snap.generation, [&] {
        return ParallelEvalMask(warm, snap.table, scan_);
      });
    }

    // Each layer's public call is bracketed by its own clock reads; the glue
    // between the calls (labels, seeding, pointer plumbing) is its own row.
    std::array<uint64_t, kNumLayers> ns{};
    auto timed = [&ns](size_t layer, auto&& call) {
      const uint64_t start = obs::NowNs();
      call();
      ns[layer] += obs::NowNs() - start;
    };
    const uint64_t t_begin = obs::NowNs();

    std::optional<CompiledPredicate> count_pred;
    std::optional<PreparedHistogramQuery> prepared;
    if (count_req != nullptr) {
      timed(kCompile, [&] {
        count_pred =
            *CompiledPredicate::Compile(count_req->where, snap.table.schema());
      });
    } else {
      timed(kCompile, [&] {
        prepared =
            *PreparedHistogramQuery::Prepare(snap.table, hist_req->query);
      });
    }
    const std::string label =
        count_req != nullptr
            ? std::string("count query")
            : std::string("histogram/") +
                  EngineMechanismToString(hist_req->mechanism);

    std::optional<Result<BudgetReservation>> reservation;
    timed(kReserve, [&] {
      reservation.emplace(BudgetReservation::Acquire(
          &session_budget_, label, &service_budget_, label + " (replay)",
          epsilon));
    });
    Rng rng(QueryService::QuerySeed(root_seed_, t.session, t.seq,
                                    snap.generation));

    const CompiledPredicate& where =
        count_pred.has_value() ? *count_pred : *prepared->where();
    uint64_t scan_ns = 0;
    std::shared_ptr<const RowMask> where_mask;
    timed(kCacheLookup, [&] {
      where_mask = cache_.LookupOrCompute(where, snap.generation, [&] {
        const uint64_t start = obs::NowNs();
        RowMask mask = ParallelEvalMask(where, snap.table, scan_);
        scan_ns = obs::NowNs() - start;
        return mask;
      });
    });
    ns[kCacheLookup] -= scan_ns;
    ns[kScan] += scan_ns;

    double released_count = 0.0;
    Result<Histogram> released_hist = Status::Internal("not released");
    bool combined = count_req != nullptr;
    if (count_req != nullptr) {
      double count = 0.0;
      timed(kCombine, [&] {
        RowMask matching = *where_mask;
        ParallelAndWith(&matching, snap.non_sensitive, scan_);
        count = static_cast<double>(ParallelCount(matching, scan_));
      });
      timed(kMechanism, [&] {
        released_count = count + SampleOneSidedLaplace(rng, 1.0 / epsilon);
      });
    } else {
      const EngineMechanism mech = hist_req->mechanism;
      Histogram x(prepared->num_bins());
      Histogram xns(prepared->num_bins());
      if (NeedsX(mech)) {
        timed(kAccumulate, [&] {
          x = ParallelAccumulateHistogram(*prepared, *where_mask, scan_);
        });
      }
      if (NeedsXns(mech)) {
        combined = true;
        RowMask selected;
        timed(kCombine, [&] {
          selected = *where_mask;
          ParallelAndWith(&selected, snap.non_sensitive, scan_);
        });
        timed(kAccumulate, [&] {
          xns = ParallelAccumulateHistogram(*prepared, selected, scan_);
        });
      }
      timed(kMechanism, [&] {
        released_hist = mech_engine_->RunMechanism(x, xns, epsilon, mech, rng);
      });
    }
    timed(kReserve, [&] {
      if (reservation->ok()) reservation->ValueOrDie().Commit();
    });
    timed(kLedger, [&] {
      ledger_.Record(policy_, epsilon, label + " (replay)", snap.generation);
    });
    const uint64_t total = obs::NowNs() - t_begin;

    total_ns_ += total;
    for (size_t l = 0; l < kNumLayers; ++l) layer_ns_[l] += ns[l];
    compile_samples_.push_back(static_cast<double>(ns[kCompile]));
    reserve_samples_.push_back(static_cast<double>(ns[kReserve]));
    ledger_samples_.push_back(static_cast<double>(ns[kLedger]));
    lookup_samples_.push_back(static_cast<double>(ns[kCacheLookup]));
    if (combined) {
      combine_samples_.push_back(static_cast<double>(ns[kCombine]));
      combine_bytes_ += where_mask->num_words() * sizeof(uint64_t);
      ++combines_;
    }
    ++replayed_;
    if (count_req != nullptr) {
      return reservation->ok() && SameBits(released_count, t.count);
    }
    mech_samples_[EngineMechanismToString(hist_req->mechanism)].push_back(
        static_cast<double>(ns[kMechanism]));
    return reservation->ok() && released_hist.ok() &&
           SameBits(released_hist->counts(), t.histogram);
  }

  /// Times a cold ParallelEvalMask of `where` over `snap` — what a miss on
  /// this request's clause costs, whether or not the service missed.
  void ProbeScan(const Predicate& where, const Snapshot& snap) {
    const CompiledPredicate pred =
        *CompiledPredicate::Compile(where, snap.table.schema());
    const uint64_t t0 = obs::NowNs();
    ParallelEvalMask(pred, snap.table, scan_);
    const uint64_t dt = obs::NowNs() - t0;
    probe_scan_samples_.push_back(static_cast<double>(dt));
    probe_rows_ += snap.table.num_rows();
    probe_ns_ += dt;
  }

  size_t replayed() const { return replayed_; }
  uint64_t total_ns() const { return total_ns_; }
  uint64_t layer_ns(size_t layer) const { return layer_ns_[layer]; }
  uint64_t glue_ns() const {
    uint64_t named = 0;
    for (uint64_t v : layer_ns_) named += v;
    return total_ns_ - named;
  }

  /// Layer shares of replay time, per-call medians and rates.
  std::map<std::string, LayerMetric> Summary() const {
    std::map<std::string, LayerMetric> out;
    const double total = static_cast<double>(std::max<uint64_t>(total_ns_, 1));
    for (size_t l = 0; l < kNumLayers; ++l) {
      out[std::string(LayerName(l)) + "_share"] = {layer_ns_[l] / total,
                                                   "fraction"};
    }
    out["replay.glue_frac"] = {glue_ns() / total, "fraction"};
    out["replay.query_us"] = {
        total / 1e3 / static_cast<double>(std::max<size_t>(replayed_, 1)),
        "us"};
    auto median_us = [](const std::vector<double>& ns) {
      return LayerMetric{Percentile(ns, 50) / 1e3, "us"};
    };
    out["data.compile_us"] = median_us(compile_samples_);
    out["accounting.reserve_us"] = median_us(reserve_samples_);
    out["accounting.ledger_us"] = median_us(ledger_samples_);
    out["runtime.cache_lookup_us"] = median_us(lookup_samples_);
    out["runtime.combine_us"] = median_us(combine_samples_);
    out["runtime.combine_bytes"] = {
        combines_ == 0 ? 0.0 : static_cast<double>(combine_bytes_) / combines_,
        "B"};
    out["runtime.scan_us"] = median_us(probe_scan_samples_);
    out["runtime.scan_us_p99"] = {Percentile(probe_scan_samples_, 99) / 1e3,
                                  "us"};
    out["runtime.scan_mrows_per_s"] = {
        probe_ns_ == 0 ? 0.0
                       : static_cast<double>(probe_rows_) * 1e3 /
                             static_cast<double>(probe_ns_),
        "Mrows/s"};
    for (const auto& [name, samples] : mech_samples_) {
      out["mech." + name + "_us"] = median_us(samples);
    }
    return out;
  }

 private:
  const OsdpEngine* mech_engine_;
  Policy policy_;
  uint64_t root_seed_;
  ParallelScanOptions scan_;
  SharedBudget session_budget_;
  SharedBudget service_budget_;
  SharedLedger ledger_;
  MaskCache cache_;

  size_t replayed_ = 0;
  uint64_t total_ns_ = 0;
  std::array<uint64_t, kNumLayers> layer_ns_{};
  std::vector<double> compile_samples_, reserve_samples_, ledger_samples_,
      lookup_samples_, combine_samples_, probe_scan_samples_;
  std::map<std::string, std::vector<double>> mech_samples_;
  size_t combines_ = 0;
  uint64_t combine_bytes_ = 0;
  uint64_t probe_rows_ = 0;
  uint64_t probe_ns_ = 0;
};

}  // namespace service_load
}  // namespace osdp

#endif  // OSDP_BENCH_SERVICE_LOAD_LAYERS_H_
