// OsdpEngine: a policy-bound dataset snapshot plus a mechanism pool. It
// holds no budget, ledger or noise stream: every release that spends ε goes
// through QueryService (src/runtime/query_service.h), which takes over the
// engine's snapshot, policy and budget, charges its two budgets, records the
// composition ledger of the paper's online setting (Section 7, Theorem 3.3),
// and seeds each query's own Rng. The mechanisms themselves — EngineMechanism,
// InputsOf and the one dispatch that runs them — are the catalog in
// src/mech/histogram_mechanism.h; RunMechanism forwards to it with the
// engine's pool, and QueryService calls the catalog with its own.

#ifndef OSDP_CORE_ENGINE_H_
#define OSDP_CORE_ENGINE_H_

#include <cstdint>
#include <utility>

#include "src/common/random.h"
#include "src/common/result.h"
#include "src/data/row_mask.h"
#include "src/data/snapshot.h"
#include "src/data/table.h"
#include "src/hist/histogram.h"
#include "src/mech/histogram_mechanism.h"
#include "src/policy/policy.h"

namespace osdp {

/// \brief A policy-guarded dataset snapshot and the mechanisms that answer
/// histogram queries over it.
class OsdpEngine {
 public:
  /// Engine configuration.
  struct Options {
    /// Lifetime privacy budget of the dataset; QueryService spends it.
    double total_epsilon = 1.0;
    /// Unread: noise always comes from the caller's Rng. Kept because
    /// bench/service_load still sets it; drop it with the next change there.
    uint64_t seed = 0x05D9;
  };

  /// Takes ownership of the data; `policy` marks sensitive records.
  /// InvalidArgument unless total_epsilon is positive and finite and the
  /// data has rows.
  static Result<OsdpEngine> Create(Table data, Policy policy, Options options);

  /// \brief osdp::RunMechanism on the engine's mechanism pool: runs
  /// `mechanism` over precomputed histograms with noise drawn from `rng`,
  /// reading only the inputs InputsOf(mechanism) declares. Const and
  /// thread-compatible: concurrent calls are safe as long as each passes a
  /// distinct Rng.
  Result<Histogram> RunMechanism(const Histogram& x, const Histogram& xns,
                                 double epsilon, EngineMechanism mechanism,
                                 Rng& rng) const {
    return osdp::RunMechanism(x, xns, epsilon, mechanism, mech_pool_, rng);
  }

  /// \brief The engine's dataset snapshot: table + cached policy mask +
  /// generation id, immutable and shareable. Create() cuts generation 0
  /// from the table it was given; QueryService seeds its snapshot store
  /// from this and publishes later generations itself.
  const SnapshotPtr& snapshot() const { return snapshot_; }

  /// The engine configuration.
  const Options& options() const { return options_; }

  /// \brief Sets the pool RunMechanism hands the mechanisms' deterministic
  /// stages to — the DAWA interval-cost engine build (also inside DAWAz) and
  /// the hierarchical consistency passes (nullptr = serial, the default).
  /// Answers stay bit-identical at any thread count: noise sampling never
  /// moves off the caller's Rng, so the QuerySeed replay contract holds and
  /// a serial replay engine reproduces pooled answers exactly.
  void set_mech_pool(ThreadPool* pool) { mech_pool_ = pool; }

  /// The active policy.
  const Policy& policy() const { return policy_; }

 private:
  OsdpEngine(SnapshotPtr snapshot, Policy policy, Options options)
      : snapshot_(std::move(snapshot)),
        policy_(std::move(policy)),
        options_(options) {}

  SnapshotPtr snapshot_;  // generation-0 view: table + cached policy mask
  Policy policy_;
  Options options_;
  ThreadPool* mech_pool_ = nullptr;
};

}  // namespace osdp

#endif  // OSDP_CORE_ENGINE_H_
