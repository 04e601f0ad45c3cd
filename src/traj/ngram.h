// N-gram release over trajectories (Section 6.3.2): the number of distinct
// users whose daily trajectory contains each sequence of n consecutive APs.
//
// The domain has 64^n cells and, untruncated, a single trajectory can touch
// every cell — sensitivity 64^n — so the DP baselines truncate each daily
// trajectory to at most k n-grams (sensitivity 2k, per [22]). OsdpRR instead
// releases whole true trajectories and pays no sensitivity at all.

#ifndef OSDP_TRAJ_NGRAM_H_
#define OSDP_TRAJ_NGRAM_H_

#include <cstdint>
#include <vector>

#include "src/common/random.h"
#include "src/common/result.h"
#include "src/hist/sparse_histogram.h"
#include "src/traj/trajectory.h"

namespace osdp {

/// Options for n-gram counting.
struct NGramOptions {
  int n = 4;            ///< n-gram length
  int alphabet = 64;    ///< number of APs
};

/// \brief Distinct-user count per n-gram over all trajectories.
/// Domain size is alphabet^n; only non-zero cells are materialized.
Result<SparseHistogram> NGramDistinctUsers(const std::vector<Trajectory>& trajs,
                                           const NGramOptions& opts);

/// \brief Same, but each daily trajectory first keeps at most `k` of its
/// distinct n-grams, selected uniformly at random (the truncation step that
/// caps sensitivity at 2k).
Result<SparseHistogram> TruncatedNGramDistinctUsers(
    const std::vector<Trajectory>& trajs, const NGramOptions& opts, int k,
    Rng& rng);

/// \brief Adds Lap(2k/ε) noise to every materialized cell of a truncated
/// n-gram histogram — the "LM Tk" baseline. Unmaterialized (zero) cells are
/// conceptually noised too; their error contribution is analytic:
/// E|Lap(2k/ε)| = 2k/ε per cell (pass as `implicit_zero_error` to
/// SparseMeanRelativeError).
Result<SparseHistogram> NGramLaplace(const SparseHistogram& truncated, int k,
                                     double epsilon, Rng& rng);

/// The analytic per-zero-cell absolute error of LM Tk: 2k/ε.
double NGramLaplaceZeroCellError(int k, double epsilon);

/// \brief n-grams of one trajectory under the given options, de-duplicated.
/// Consecutive duplicate APs are always collapsed before windowing, so
/// n-grams encode movement rather than dwelling, as the paper's frequent
/// patterns do ("visits the three access points at consecutive time
/// intervals"); every bench and example counts that way.
std::vector<std::vector<int>> TrajectoryNGrams(const Trajectory& traj,
                                               const NGramOptions& opts);

}  // namespace osdp

#endif  // OSDP_TRAJ_NGRAM_H_
