#include "src/mech/two_phase.h"

#include <vector>

namespace osdp {

Status ValidateBinGroups(const BinGroups& groups, size_t bins) {
  std::vector<bool> seen(bins, false);
  size_t count = 0;
  for (const auto& group : groups) {
    if (group.empty()) return Status::InvalidArgument("empty bin group");
    for (uint32_t bin : group) {
      if (bin >= bins) return Status::InvalidArgument("bin outside domain");
      if (seen[bin]) return Status::InvalidArgument("bin in two groups");
      seen[bin] = true;
      ++count;
    }
  }
  if (count != bins) {
    return Status::InvalidArgument("groups do not cover every bin");
  }
  return Status::OK();
}

namespace {

class DawaTwoPhase final : public TwoPhaseMechanism {
 public:
  explicit DawaTwoPhase(DawaOptions opts) : opts_(opts) {}

  const std::string& name() const override {
    static const std::string kName = "DAWA";
    return kName;
  }

  Result<Output> Run(const Histogram& x, double epsilon,
                     Rng& rng) const override {
    OSDP_ASSIGN_OR_RETURN(DawaResult r, Dawa(x, epsilon, opts_, rng));
    BinGroups groups;
    groups.reserve(r.partition.size());
    for (const DawaBucket& b : r.partition) {
      std::vector<uint32_t> group;
      group.reserve(b.size());
      for (size_t i = b.begin; i < b.end; ++i) {
        group.push_back(static_cast<uint32_t>(i));
      }
      groups.push_back(std::move(group));
    }
    return Output{std::move(r.estimate), std::move(groups)};
  }

 private:
  DawaOptions opts_;
};

}  // namespace

std::unique_ptr<TwoPhaseMechanism> MakeDawaTwoPhase(DawaOptions opts) {
  return std::make_unique<DawaTwoPhase>(opts);
}

}  // namespace osdp
