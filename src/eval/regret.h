// The regret evaluation harness of Section 6.3.3: run a suite of mechanisms
// on a (x, x_ns, ε) input, average an error metric over repetitions, and
// report each algorithm's error relative to the best algorithm on that input
// (regret(A) = Err(A) / min_B Err(B)).

#ifndef OSDP_EVAL_REGRET_H_
#define OSDP_EVAL_REGRET_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/common/result.h"
#include "src/eval/metrics.h"
#include "src/hist/histogram.h"
#include "src/mech/histogram_mechanism.h"

namespace osdp {

/// The error measure a suite run is scored on.
enum class ErrorMetric {
  kMRE = 0,    ///< mean relative error
  kRel50 = 1,  ///< median per-bin relative error
  kRel95 = 2,  ///< 95th-percentile per-bin relative error
  kL1 = 3,     ///< L1 error
};

/// Computes a single metric value between truth and estimate.
double ComputeError(ErrorMetric metric, const Histogram& truth,
                    const Histogram& estimate);

/// How a suite run is executed.
struct SuiteRunOptions {
  int repetitions = 10;    ///< independent runs averaged per mechanism
  uint64_t seed = 1;       ///< base seed; each repetition forks its own stream
};

/// One mechanism's averaged score on one input.
struct MechanismScore {
  std::string name;
  double error = 0.0;   ///< metric averaged over repetitions
  double regret = 0.0;  ///< error / best error in the suite (>= 1)
};

/// \brief Runs every mechanism of `suite` on (x, x_ns) at ε and returns the
/// averaged errors with regrets filled in. Errors if any run fails.
Result<std::vector<MechanismScore>> RunSuite(
    const std::vector<std::unique_ptr<HistogramMechanism>>& suite,
    const Histogram& x, const Histogram& xns, double epsilon,
    ErrorMetric metric, const SuiteRunOptions& opts);

/// Finds a score by mechanism name; aborts if absent (bench programming
/// error, not data).
const MechanismScore& ScoreOf(const std::vector<MechanismScore>& scores,
                              const std::string& name);

/// \brief Accumulates scores across many inputs and reports, per mechanism,
/// the average regret — the paper's headline aggregate ("DAWAz has on average
/// less than 2× the error of the optimal... DAWA incurs 6×").
class RegretAccumulator {
 public:
  /// Folds in one input's scores (as returned by RunSuite).
  void Add(const std::vector<MechanismScore>& scores);

  /// Average regret per mechanism, in first-seen order.
  std::vector<MechanismScore> AverageRegrets() const;

 private:
  std::vector<std::string> order_;
  std::vector<double> regret_sums_;
  std::vector<double> error_sums_;
  size_t inputs_ = 0;
};

}  // namespace osdp

#endif  // OSDP_EVAL_REGRET_H_
