#include "src/mech/dawaz.h"

#include "src/mech/two_phase.h"

namespace osdp {

Result<Histogram> Dawaz(const Histogram& x, const Histogram& xns,
                        double epsilon, const DawazOptions& opts, Rng& rng) {
  return ApplyOsdpRecipe(*MakeDawaTwoPhase(opts.dawa), x, xns, epsilon, opts,
                         rng);
}

Result<Histogram> Dawaz(const Histogram& x, const Histogram& xns,
                        double epsilon, Rng& rng) {
  return Dawaz(x, xns, epsilon, DawazOptions{}, rng);
}

}  // namespace osdp
