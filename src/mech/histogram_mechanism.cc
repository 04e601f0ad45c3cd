#include "src/mech/histogram_mechanism.h"

#include <iterator>
#include <utility>

#include "src/common/check.h"
#include "src/mech/dawa.h"
#include "src/mech/dawaz.h"
#include "src/mech/hierarchical.h"
#include "src/mech/laplace.h"
#include "src/mech/osdp_laplace.h"
#include "src/mech/osdp_rr.h"
#include "src/mech/suppress.h"

namespace osdp {

namespace {

// What the catalog says about each EngineMechanism besides how to run it.
struct CatalogEntry {
  const char* name;
  MechanismInputs inputs;
  bool one_sided;  // (P, ε)-OSDP rather than ε-DP
};

// Indexed by EngineMechanism's value.
constexpr CatalogEntry kCatalog[] = {
    {"Laplace", {/*x=*/true, /*xns=*/false}, false},
    {"OsdpLaplace", {/*x=*/false, /*xns=*/true}, true},
    {"OsdpLaplaceL1", {/*x=*/false, /*xns=*/true}, true},
    {"DAWA", {/*x=*/true, /*xns=*/false}, false},
    {"DAWAz", {/*x=*/true, /*xns=*/true}, true},
    {"Hierarchical", {/*x=*/true, /*xns=*/false}, false},
};

// nullptr for a value outside the enum.
const CatalogEntry* Find(EngineMechanism m) {
  const auto i = static_cast<size_t>(m);
  return i < std::size(kCatalog) ? &kCatalog[i] : nullptr;
}

}  // namespace

MechanismInputs InputsOf(EngineMechanism mechanism) {
  const CatalogEntry* e = Find(mechanism);
  return e != nullptr ? e->inputs : MechanismInputs{};
}

const char* EngineMechanismToString(EngineMechanism m) {
  const CatalogEntry* e = Find(m);
  return e != nullptr ? e->name : "?";
}

Result<Histogram> RunMechanism(const Histogram& x, const Histogram& xns,
                               double epsilon, EngineMechanism mechanism,
                               ThreadPool* pool, Rng& rng) {
  switch (mechanism) {
    case EngineMechanism::kLaplace:
      return LaplaceMechanism(x, epsilon, rng);
    case EngineMechanism::kOsdpLaplace:
      return OsdpLaplace(xns, epsilon, rng);
    case EngineMechanism::kOsdpLaplaceL1:
      return OsdpLaplaceL1(xns, epsilon, rng);
    case EngineMechanism::kDawa: {
      DawaOptions opts;
      opts.pool = pool;
      OSDP_ASSIGN_OR_RETURN(DawaResult r, Dawa(x, epsilon, opts, rng));
      return std::move(r.estimate);
    }
    case EngineMechanism::kDawaz: {
      DawazOptions opts;
      opts.dawa.pool = pool;
      return Dawaz(x, xns, epsilon, opts, rng);
    }
    case EngineMechanism::kHierarchical:
      return HierarchicalRelease(x, epsilon, HierarchicalOptions{}, rng);
  }
  return Status::Internal("unreachable");
}

namespace {

class CatalogMechanism final : public HistogramMechanism {
 public:
  CatalogMechanism(EngineMechanism m, const CatalogEntry& entry)
      : mechanism_(m), name_(entry.name), one_sided_(entry.one_sided) {}
  const std::string& name() const override { return name_; }
  PrivacyGuarantee Guarantee(double epsilon) const override {
    return one_sided_ ? OsdpGuarantee(epsilon, /*policy_name=*/"P")
                      : DpGuarantee(epsilon);
  }
  Result<Histogram> Run(const Histogram& x, const Histogram& xns,
                        double epsilon, Rng& rng) const override {
    return RunMechanism(x, xns, epsilon, mechanism_, /*pool=*/nullptr, rng);
  }

 private:
  EngineMechanism mechanism_;
  std::string name_;
  bool one_sided_;
};

class OsdpRRHistogramMechanism final : public HistogramMechanism {
 public:
  const std::string& name() const override {
    static const std::string kName = "OsdpRR";
    return kName;
  }
  PrivacyGuarantee Guarantee(double epsilon) const override {
    return OsdpGuarantee(epsilon, /*policy_name=*/"P");
  }
  Result<Histogram> Run(const Histogram& /*x*/, const Histogram& xns,
                        double epsilon, Rng& rng) const override {
    return OsdpRRHistogram(xns, epsilon, rng);
  }
};

class SuppressHistogramMechanism final : public HistogramMechanism {
 public:
  explicit SuppressHistogramMechanism(double tau)
      : tau_(tau), name_("Suppress" + std::to_string(static_cast<int>(tau))) {}
  const std::string& name() const override { return name_; }
  PrivacyGuarantee Guarantee(double /*epsilon*/) const override {
    return SuppressGuarantee(tau_, /*policy_name=*/"Phi_P");
  }
  Result<Histogram> Run(const Histogram& /*x*/, const Histogram& xns,
                        double /*epsilon*/, Rng& rng) const override {
    SuppressOptions opts;
    opts.tau = tau_;
    return Suppress(xns, opts, rng);
  }

 private:
  double tau_;
  std::string name_;
};

class DawaNsHistogramMechanism final : public HistogramMechanism {
 public:
  const std::string& name() const override {
    static const std::string kName = "DAWAns";
    return kName;
  }
  PrivacyGuarantee Guarantee(double epsilon) const override {
    return OsdpGuarantee(epsilon, /*policy_name=*/"P");
  }
  Result<Histogram> Run(const Histogram& /*x*/, const Histogram& xns,
                        double epsilon, Rng& rng) const override {
    OSDP_ASSIGN_OR_RETURN(DawaResult r, Dawa(xns, epsilon, rng));
    return std::move(r.estimate);
  }
};

}  // namespace

std::unique_ptr<HistogramMechanism> MakeCatalogMechanism(
    EngineMechanism mechanism) {
  const CatalogEntry* entry = Find(mechanism);
  OSDP_CHECK(entry != nullptr);
  return std::make_unique<CatalogMechanism>(mechanism, *entry);
}

std::unique_ptr<HistogramMechanism> MakeOsdpRRMechanism() {
  return std::make_unique<OsdpRRHistogramMechanism>();
}

std::unique_ptr<HistogramMechanism> MakeSuppressMechanism(double tau) {
  return std::make_unique<SuppressHistogramMechanism>(tau);
}

std::unique_ptr<HistogramMechanism> MakeDawaNsMechanism() {
  return std::make_unique<DawaNsHistogramMechanism>();
}

std::vector<std::unique_ptr<HistogramMechanism>> StandardSuite() {
  std::vector<std::unique_ptr<HistogramMechanism>> suite;
  suite.push_back(MakeCatalogMechanism(EngineMechanism::kLaplace));
  suite.push_back(MakeCatalogMechanism(EngineMechanism::kDawa));
  suite.push_back(MakeOsdpRRMechanism());
  suite.push_back(MakeCatalogMechanism(EngineMechanism::kOsdpLaplace));
  suite.push_back(MakeCatalogMechanism(EngineMechanism::kOsdpLaplaceL1));
  suite.push_back(MakeCatalogMechanism(EngineMechanism::kDawaz));
  return suite;
}

}  // namespace osdp
