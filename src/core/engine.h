// OsdpEngine: a policy-bound dataset snapshot plus the one mechanism
// dispatch. It holds no budget, ledger or noise stream: every release that
// spends ε goes through QueryService (src/runtime/query_service.h), which
// takes the engine over, charges its two budgets, records the composition
// ledger of the paper's online setting (Section 7, Theorem 3.3), and seeds
// each query's own Rng. The engine only says what each mechanism reads
// (InputsOf) and runs it (RunMechanism).

#ifndef OSDP_CORE_ENGINE_H_
#define OSDP_CORE_ENGINE_H_

#include <cstdint>

#include "src/common/random.h"
#include "src/common/result.h"
#include "src/data/row_mask.h"
#include "src/data/snapshot.h"
#include "src/data/table.h"
#include "src/hist/histogram.h"
#include "src/mech/dawa.h"
#include "src/mech/dawaz.h"
#include "src/mech/hierarchical.h"
#include "src/policy/policy.h"

namespace osdp {

/// Which algorithm answers a histogram query.
enum class EngineMechanism {
  kLaplace = 0,        ///< ε-DP Laplace on the full histogram
  kOsdpLaplace = 1,    ///< one-sided Laplace on x_ns (Definition 5.2)
  kOsdpLaplaceL1 = 2,  ///< Algorithm 2
  kDawa = 3,           ///< ε-DP DAWA on the full histogram
  kDawaz = 4,          ///< Algorithm 3
  kHierarchical = 5,   ///< ε-DP hierarchical release (Hay et al.)
};

/// Which histograms a mechanism reads.
struct MechanismInputs {
  bool x = false;    ///< the histogram over all rows
  bool xns = false;  ///< the histogram over the non-sensitive rows (x_ns)
};

/// \brief The inputs RunMechanism passes to `mechanism`: x for the DP
/// mechanisms, x_ns for the one-sided ones, both for DAWAz. A caller may
/// pass any same-sized histogram for an input not declared here; the output
/// does not depend on it.
MechanismInputs InputsOf(EngineMechanism mechanism);

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
    DawaOptions dawa;                  ///< options for DAWA-based mechanisms
    DawazOptions dawaz;                ///< options for DAWAz
    HierarchicalOptions hierarchical;  ///< options for kHierarchical
  };

  /// Takes ownership of the data; `policy` marks sensitive records.
  /// InvalidArgument unless total_epsilon is positive and finite and the
  /// data has rows.
  static Result<OsdpEngine> Create(Table data, Policy policy, Options options);

  /// \brief Runs `mechanism` over precomputed histograms with noise drawn
  /// from `rng`; reads only the inputs InputsOf(mechanism) declares. Const
  /// and thread-compatible: concurrent calls are safe as long as each passes
  /// a distinct Rng.
  Result<Histogram> RunMechanism(const Histogram& x, const Histogram& xns,
                                 double epsilon, EngineMechanism mechanism,
                                 Rng& rng) const;

  /// \brief The engine's dataset snapshot: table + cached policy mask +
  /// generation id, immutable and shareable. Create() cuts generation 0
  /// from the table it was given; QueryService seeds its snapshot store
  /// from this and publishes later generations itself.
  const SnapshotPtr& snapshot() const { return snapshot_; }

  /// The guarded dataset (borrowed from the snapshot; valid as long as any
  /// holder keeps the snapshot alive — at least the engine's lifetime).
  const Table& data() const { return snapshot_->table; }

  /// The cached non-sensitive row mask (batch-classified at construction,
  /// immutable within the snapshot).
  const RowMask& non_sensitive_mask() const { return snapshot_->non_sensitive; }

  /// The engine configuration.
  const Options& options() const { return options_; }

  /// \brief Routes the deterministic post-processing stages of every
  /// mechanism — the DAWA interval-cost engine build (also inside DAWAz) and
  /// the hierarchical consistency passes — onto `pool` (nullptr = serial).
  /// Answers stay bit-identical at any thread count: noise sampling never
  /// moves off the caller's Rng, so the QuerySeed replay contract holds and
  /// a serial replay engine reproduces pooled answers exactly.
  void set_mech_pool(ThreadPool* pool) {
    options_.dawa.pool = pool;
    options_.dawaz.dawa.pool = pool;
    options_.hierarchical.pool = pool;
  }

  /// Number of rows in the guarded dataset.
  size_t num_rows() const { return snapshot_->table.num_rows(); }

  /// The active policy.
  const Policy& policy() const { return policy_; }

 private:
  OsdpEngine(Table data, Policy policy, Options options);

  SnapshotPtr snapshot_;  // generation-0 view: table + cached policy mask
  Policy policy_;
  Options options_;
};

/// Name of an EngineMechanism ("Laplace", "DAWAz", ...).
const char* EngineMechanismToString(EngineMechanism m);

}  // namespace osdp

#endif  // OSDP_CORE_ENGINE_H_
