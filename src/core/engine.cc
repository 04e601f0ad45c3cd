#include "src/core/engine.h"

#include <cmath>
#include <utility>

#include "src/data/table_builder.h"

namespace osdp {

Result<OsdpEngine> OsdpEngine::Create(Table data, Policy policy,
                                      Options options) {
  if (!std::isfinite(options.total_epsilon) || options.total_epsilon <= 0.0) {
    return Status::InvalidArgument(
        "total_epsilon must be positive and finite");
  }
  if (data.num_rows() == 0) {
    return Status::InvalidArgument("engine needs a non-empty dataset");
  }
  // Generation 0 is classified the way every later generation is: by a
  // TableBuilder. Its one compile also type-checks the (possibly untrusted)
  // policy: NotFound for an unknown column, InvalidArgument for a
  // string/numeric mix.
  OSDP_ASSIGN_OR_RETURN(TableBuilder builder,
                        TableBuilder::Create(std::move(data), policy));
  return OsdpEngine(builder.BuildSnapshot(0), std::move(policy), options);
}

}  // namespace osdp
