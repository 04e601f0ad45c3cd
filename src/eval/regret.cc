#include "src/eval/regret.h"

#include <algorithm>

#include "src/common/check.h"

namespace osdp {

double ComputeError(ErrorMetric metric, const Histogram& truth,
                    const Histogram& estimate) {
  switch (metric) {
    case ErrorMetric::kMRE:
      return MeanRelativeError(truth, estimate);
    case ErrorMetric::kRel50:
      return RelativeErrorPercentile(truth, estimate, 50.0);
    case ErrorMetric::kRel95:
      return RelativeErrorPercentile(truth, estimate, 95.0);
    case ErrorMetric::kL1:
      return L1Error(truth, estimate);
  }
  OSDP_CHECK_MSG(false, "bad metric");
  return 0.0;
}

Result<std::vector<MechanismScore>> RunSuite(
    const std::vector<std::unique_ptr<HistogramMechanism>>& suite,
    const Histogram& x, const Histogram& xns, double epsilon,
    ErrorMetric metric, const SuiteRunOptions& opts) {
  if (suite.empty()) {
    return Status::InvalidArgument("empty mechanism suite");
  }
  if (opts.repetitions <= 0) {
    return Status::InvalidArgument("repetitions must be positive");
  }
  std::vector<MechanismScore> scores;
  scores.reserve(suite.size());
  Rng seeder(opts.seed);
  for (const auto& mech : suite) {
    Rng mech_rng = seeder.Fork();
    double acc = 0.0;
    for (int rep = 0; rep < opts.repetitions; ++rep) {
      Rng rep_rng = mech_rng.Fork();
      OSDP_ASSIGN_OR_RETURN(Histogram est,
                            mech->Run(x, xns, epsilon, rep_rng));
      acc += ComputeError(metric, x, est);
    }
    MechanismScore s;
    s.name = mech->name();
    s.error = acc / opts.repetitions;
    scores.push_back(std::move(s));
  }
  double best = scores[0].error;
  for (const MechanismScore& s : scores) best = std::min(best, s.error);
  for (MechanismScore& s : scores) {
    s.regret = best > 0.0 ? s.error / best : 1.0;
  }
  return scores;
}

const MechanismScore& ScoreOf(const std::vector<MechanismScore>& scores,
                              const std::string& name) {
  for (const MechanismScore& s : scores) {
    if (s.name == name) return s;
  }
  OSDP_CHECK_MSG(false, "no score for mechanism " << name);
  static MechanismScore dummy;
  return dummy;
}

void RegretAccumulator::Add(const std::vector<MechanismScore>& scores) {
  if (order_.empty()) {
    for (const MechanismScore& s : scores) {
      order_.push_back(s.name);
      regret_sums_.push_back(0.0);
      error_sums_.push_back(0.0);
    }
  }
  OSDP_CHECK_MSG(scores.size() == order_.size(),
                 "inconsistent suite across inputs");
  for (size_t i = 0; i < scores.size(); ++i) {
    OSDP_CHECK(scores[i].name == order_[i]);
    regret_sums_[i] += scores[i].regret;
    error_sums_[i] += scores[i].error;
  }
  ++inputs_;
}

std::vector<MechanismScore> RegretAccumulator::AverageRegrets() const {
  std::vector<MechanismScore> out;
  out.reserve(order_.size());
  for (size_t i = 0; i < order_.size(); ++i) {
    MechanismScore s;
    s.name = order_[i];
    s.error = inputs_ ? error_sums_[i] / static_cast<double>(inputs_) : 0.0;
    s.regret = inputs_ ? regret_sums_[i] / static_cast<double>(inputs_) : 0.0;
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace osdp
