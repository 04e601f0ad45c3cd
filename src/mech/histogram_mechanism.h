// The histogram mechanism catalog and the uniform interface the evaluation
// harness (regret, Section 6.3.3) runs algorithms through.
//
// EngineMechanism names every algorithm QueryService can release a histogram
// with. Each one's name, inputs, guarantee and run live in one place,
// histogram_mechanism.cc, and RunMechanism is the only dispatch over them:
// OsdpEngine::RunMechanism forwards to it, and the regret suites reach the
// same algorithms through MakeCatalogMechanism. Algorithms outside the
// catalog (OsdpRR's histogram form, Suppress, DAWAns, AHP and the recipe
// instances of mech/recipe.h) implement HistogramMechanism directly.

#ifndef OSDP_MECH_HISTOGRAM_MECHANISM_H_
#define OSDP_MECH_HISTOGRAM_MECHANISM_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/common/result.h"
#include "src/hist/histogram.h"
#include "src/mech/guarantee.h"

namespace osdp {

class ThreadPool;

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

/// Name of an EngineMechanism ("Laplace", "DAWAz", ...).
const char* EngineMechanismToString(EngineMechanism m);

/// \brief Runs `mechanism` on (x, x_ns) at ε with noise drawn from `rng`;
/// reads only the inputs InputsOf(mechanism) declares. `pool` carries the
/// deterministic stages — the DAWA interval-cost engine build (also inside
/// DAWAz) and the hierarchical consistency passes — and nullptr runs them
/// serially. Noise sampling never leaves `rng`, so the answer is
/// bit-identical for any pool.
Result<Histogram> RunMechanism(const Histogram& x, const Histogram& xns,
                               double epsilon, EngineMechanism mechanism,
                               ThreadPool* pool, Rng& rng);

/// \brief Abstract histogram-release mechanism.
///
/// Every implementation consumes the pair (x, x_ns) — the histogram over all
/// records and over the non-sensitive subset — even though DP mechanisms
/// read only x and pure OSDP primitives read only x_ns; the shared signature
/// is what lets the regret harness treat them uniformly.
class HistogramMechanism {
 public:
  virtual ~HistogramMechanism() = default;

  /// Display name used in experiment tables ("DAWA", "OsdpLaplaceL1", ...).
  virtual const std::string& name() const = 0;

  /// The formal guarantee of a release at privacy parameter ε.
  virtual PrivacyGuarantee Guarantee(double epsilon) const = 0;

  /// Releases an estimate of x. `xns` must be per-bin dominated by `x`.
  virtual Result<Histogram> Run(const Histogram& x, const Histogram& xns,
                                double epsilon, Rng& rng) const = 0;
};

/// \name Factories for the individual algorithms.
/// @{

/// A catalog algorithm, run serially through RunMechanism and named by
/// EngineMechanismToString. DP for Laplace, DAWA and Hierarchical; (P, ε)-OSDP
/// for the rest.
std::unique_ptr<HistogramMechanism> MakeCatalogMechanism(
    EngineMechanism mechanism);

/// (P, ε)-OSDP randomized-response subsample of x_ns.
std::unique_ptr<HistogramMechanism> MakeOsdpRRMechanism();

/// Φ_P-PDP Suppress at threshold τ (φ = τ exclusion-attack freedom only).
std::unique_ptr<HistogramMechanism> MakeSuppressMechanism(double tau);

/// Naive recipe extension (Section 5.2): DAWA run unchanged on x_ns. An ε-DP
/// computation over x_ns is (P, ε)-OSDP because one-sided neighbors perturb
/// x_ns by at most one count; used by the recipe ablation bench.
std::unique_ptr<HistogramMechanism> MakeDawaNsMechanism();
/// @}

/// \brief The paper's evaluation suite (Section 6.3.3): Laplace, DAWA,
/// OsdpRR, OsdpLaplace, OsdpLaplaceL1, DAWAz — the 6 algorithms regret is
/// measured against.
std::vector<std::unique_ptr<HistogramMechanism>> StandardSuite();

/// \brief The extended suite: the standard six plus AHP, Hierarchical and
/// the Section 5.2 recipe instantiated on them (AHPz, Hierarchicalz) — the
/// "other algorithms" the paper leaves as future work. Defined in
/// mech/recipe.cc.
std::vector<std::unique_ptr<HistogramMechanism>> ExtendedSuite();

}  // namespace osdp

#endif  // OSDP_MECH_HISTOGRAM_MECHANISM_H_
