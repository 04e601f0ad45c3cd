#include "src/attack/exclusion.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/mech/guarantee.h"

namespace osdp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kRowSumTolerance = 1e-9;

}  // namespace

Status SingleRecordMechanism::Validate() const {
  const size_t v = value_names.size();
  if (v == 0) return Status::InvalidArgument("empty value domain");
  if (sensitive.size() != v) {
    return Status::InvalidArgument("sensitive flags arity mismatch");
  }
  if (likelihood.size() != v) {
    return Status::InvalidArgument("likelihood rows != domain size");
  }
  const size_t o = output_names.size();
  if (o == 0) return Status::InvalidArgument("empty output alphabet");
  bool any_sensitive = false, any_non_sensitive = false;
  for (bool s : sensitive) (s ? any_sensitive : any_non_sensitive) = true;
  if (!any_sensitive || !any_non_sensitive) {
    return Status::InvalidArgument(
        "policy must be non-trivial (both classes present)");
  }
  for (size_t i = 0; i < v; ++i) {
    if (likelihood[i].size() != o) {
      return Status::InvalidArgument("likelihood row arity mismatch");
    }
    double sum = 0.0;
    for (double p : likelihood[i]) {
      if (p < 0.0 || p > 1.0) {
        return Status::InvalidArgument("likelihood outside [0,1]");
      }
      sum += p;
    }
    if (std::abs(sum - 1.0) > kRowSumTolerance) {
      return Status::InvalidArgument("likelihood row does not sum to 1");
    }
  }
  return Status::OK();
}

Result<double> ExclusionAttackPhi(const SingleRecordMechanism& mech) {
  OSDP_RETURN_IF_ERROR(mech.Validate());
  double max_ratio = 1.0;
  for (size_t x = 0; x < mech.value_names.size(); ++x) {
    if (!mech.sensitive[x]) continue;
    for (size_t y = 0; y < mech.value_names.size(); ++y) {
      if (y == x) continue;
      for (size_t o = 0; o < mech.output_names.size(); ++o) {
        const double px = mech.likelihood[x][o];
        const double py = mech.likelihood[y][o];
        if (px <= 0.0) continue;  // x cannot produce this output
        if (py <= 0.0) return kInf;
        max_ratio = std::max(max_ratio, px / py);
      }
    }
  }
  return std::log(max_ratio);
}

Result<double> PosteriorOddsRatio(const SingleRecordMechanism& mech,
                                  const std::vector<double>& prior, size_t x,
                                  size_t y, size_t output) {
  OSDP_RETURN_IF_ERROR(mech.Validate());
  if (prior.size() != mech.value_names.size()) {
    return Status::InvalidArgument("prior arity mismatch");
  }
  if (x >= prior.size() || y >= prior.size() ||
      output >= mech.output_names.size()) {
    return Status::OutOfRange("index outside domain");
  }
  if (prior[x] <= 0.0 || prior[y] <= 0.0) {
    return Status::InvalidArgument(
        "Definition 3.4 requires positive prior mass on x and y");
  }
  const double post_x = prior[x] * mech.likelihood[x][output];
  const double post_y = prior[y] * mech.likelihood[y][output];
  if (post_x == 0.0 && post_y == 0.0) {
    return Status::InvalidArgument("output impossible under both hypotheses");
  }
  if (post_y == 0.0) return kInf;
  return post_x / post_y;
}

Result<bool> SatisfiesOsdpSingleRecord(const SingleRecordMechanism& mech,
                                       double epsilon, double* max_ratio) {
  OSDP_RETURN_IF_ERROR(mech.Validate());
  OSDP_RETURN_IF_ERROR(ValidateEpsilon(epsilon));
  const double bound = std::exp(epsilon) * (1.0 + 1e-12);
  double worst = 1.0;
  bool ok = true;
  for (size_t x = 0; x < mech.value_names.size(); ++x) {
    if (!mech.sensitive[x]) continue;  // only sensitive records have neighbors
    for (size_t y = 0; y < mech.value_names.size(); ++y) {
      if (y == x) continue;
      for (size_t o = 0; o < mech.output_names.size(); ++o) {
        const double px = mech.likelihood[x][o];
        const double py = mech.likelihood[y][o];
        if (px <= 0.0) continue;  // Pr[M(x)=o]=0 satisfies the bound trivially
        if (py <= 0.0) {
          ok = false;
          worst = kInf;
          continue;
        }
        worst = std::max(worst, px / py);
        if (px / py > bound) ok = false;
      }
    }
  }
  if (max_ratio != nullptr) *max_ratio = worst;
  return ok;
}

namespace {

// Shared scaffolding: outputs are one per value plus "∅" at index v (and
// "REJECT" at v+1 for non-Truman).
SingleRecordMechanism MakeBase(std::vector<bool> sensitive, bool with_reject,
                               std::string name) {
  SingleRecordMechanism mech;
  mech.name = std::move(name);
  const size_t v = sensitive.size();
  mech.sensitive = std::move(sensitive);
  for (size_t i = 0; i < v; ++i) {
    mech.value_names.push_back("v" + std::to_string(i));
    mech.output_names.push_back("v" + std::to_string(i));
  }
  mech.output_names.push_back("\xE2\x88\x85");  // "∅"
  if (with_reject) mech.output_names.push_back("REJECT");
  mech.likelihood.assign(v,
                         std::vector<double>(mech.output_names.size(), 0.0));
  return mech;
}

}  // namespace

SingleRecordMechanism MakeOsdpRRModel(std::vector<bool> sensitive,
                                      double epsilon) {
  SingleRecordMechanism mech =
      MakeBase(std::move(sensitive), /*with_reject=*/false, "OsdpRR");
  const size_t v = mech.value_names.size();
  const double p = 1.0 - std::exp(-epsilon);
  for (size_t i = 0; i < v; ++i) {
    if (mech.sensitive[i]) {
      mech.likelihood[i][v] = 1.0;  // always suppressed
    } else {
      mech.likelihood[i][i] = p;       // released truthfully
      mech.likelihood[i][v] = 1.0 - p; // suppressed
    }
  }
  return mech;
}

SingleRecordMechanism MakeTrumanModel(std::vector<bool> sensitive) {
  SingleRecordMechanism mech =
      MakeBase(std::move(sensitive), /*with_reject=*/false, "Truman");
  const size_t v = mech.value_names.size();
  for (size_t i = 0; i < v; ++i) {
    if (mech.sensitive[i]) {
      mech.likelihood[i][v] = 1.0;
    } else {
      mech.likelihood[i][i] = 1.0;
    }
  }
  return mech;
}

SingleRecordMechanism MakeNonTrumanModel(std::vector<bool> sensitive) {
  SingleRecordMechanism mech =
      MakeBase(std::move(sensitive), /*with_reject=*/true, "NonTruman");
  const size_t v = mech.value_names.size();
  for (size_t i = 0; i < v; ++i) {
    if (mech.sensitive[i]) {
      mech.likelihood[i][v + 1] = 1.0;  // loud rejection
    } else {
      mech.likelihood[i][i] = 1.0;
    }
  }
  return mech;
}

SingleRecordMechanism MakeKRandomizedResponseModel(std::vector<bool> sensitive,
                                                   double epsilon) {
  SingleRecordMechanism mech =
      MakeBase(std::move(sensitive), /*with_reject=*/false, "kRR");
  const size_t v = mech.value_names.size();
  const double e = std::exp(epsilon);
  const double p_true = e / (e + static_cast<double>(v) - 1.0);
  const double p_other = 1.0 / (e + static_cast<double>(v) - 1.0);
  for (size_t i = 0; i < v; ++i) {
    for (size_t o = 0; o < v; ++o) {
      mech.likelihood[i][o] = (o == i) ? p_true : p_other;
    }
    // The "∅" output is never produced; probability stays 0.
  }
  return mech;
}

}  // namespace osdp
