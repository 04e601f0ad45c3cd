#include "src/core/engine.h"

#include <cmath>
#include <memory>
#include <utility>

namespace osdp {

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

}  // namespace osdp
