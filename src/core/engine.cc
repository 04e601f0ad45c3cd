#include "src/core/engine.h"

#include <cmath>
#include <memory>
#include <utility>

#include "src/mech/laplace.h"
#include "src/mech/osdp_laplace.h"

namespace osdp {

const char* EngineMechanismToString(EngineMechanism m) {
  switch (m) {
    case EngineMechanism::kLaplace:
      return "Laplace";
    case EngineMechanism::kOsdpLaplace:
      return "OsdpLaplace";
    case EngineMechanism::kOsdpLaplaceL1:
      return "OsdpLaplaceL1";
    case EngineMechanism::kDawa:
      return "DAWA";
    case EngineMechanism::kDawaz:
      return "DAWAz";
    case EngineMechanism::kHierarchical:
      return "Hierarchical";
  }
  return "?";
}

MechanismInputs InputsOf(EngineMechanism mechanism) {
  switch (mechanism) {
    case EngineMechanism::kLaplace:
    case EngineMechanism::kDawa:
    case EngineMechanism::kHierarchical:
      return {/*x=*/true, /*xns=*/false};
    case EngineMechanism::kOsdpLaplace:
    case EngineMechanism::kOsdpLaplaceL1:
      return {/*x=*/false, /*xns=*/true};
    case EngineMechanism::kDawaz:
      return {/*x=*/true, /*xns=*/true};
  }
  return {};
}

OsdpEngine::OsdpEngine(Table data, Policy policy, Options options)
    : policy_(std::move(policy)), options_(options) {
  auto snapshot = std::make_shared<Snapshot>();
  snapshot->generation = 0;
  snapshot->table = std::move(data);
  snapshot->non_sensitive = policy_.NonSensitiveRowMask(snapshot->table);
  snapshot_ = std::move(snapshot);
}

Result<OsdpEngine> OsdpEngine::Create(Table data, Policy policy,
                                      Options options) {
  if (!std::isfinite(options.total_epsilon) || options.total_epsilon <= 0.0) {
    return Status::InvalidArgument(
        "total_epsilon must be positive and finite");
  }
  if (data.num_rows() == 0) {
    return Status::InvalidArgument("engine needs a non-empty dataset");
  }
  return OsdpEngine(std::move(data), std::move(policy), options);
}

Result<Histogram> OsdpEngine::RunMechanism(const Histogram& x,
                                           const Histogram& xns,
                                           double epsilon,
                                           EngineMechanism mechanism,
                                           Rng& rng) const {
  switch (mechanism) {
    case EngineMechanism::kLaplace:
      return LaplaceMechanism(x, epsilon, rng);
    case EngineMechanism::kOsdpLaplace:
      return OsdpLaplace(xns, epsilon, rng);
    case EngineMechanism::kOsdpLaplaceL1:
      return OsdpLaplaceL1(xns, epsilon, rng);
    case EngineMechanism::kDawa: {
      auto r = Dawa(x, epsilon, options_.dawa, rng);
      if (!r.ok()) return r.status();
      return std::move(r->estimate);
    }
    case EngineMechanism::kDawaz:
      return Dawaz(x, xns, epsilon, options_.dawaz, rng);
    case EngineMechanism::kHierarchical: {
      auto r = HierarchicalRelease(x, epsilon, options_.hierarchical, rng);
      if (!r.ok()) return r.status();
      return std::move(r->estimate);
    }
  }
  return Status::Internal("unreachable");
}

}  // namespace osdp
