#include "src/mech/agrid.h"

#include <algorithm>
#include <cmath>

#include "src/common/distributions.h"
#include "src/mech/guarantee.h"

namespace osdp {

namespace {

// An axis-aligned cell [r0, r1) x [c0, c1) of the 2-D domain.
struct Cell {
  size_t r0, r1, c0, c1;
};

// Splits [lo, hi) into `parts` near-equal segments.
std::vector<std::pair<size_t, size_t>> SplitAxis(size_t lo, size_t hi,
                                                 size_t parts) {
  const size_t width = hi - lo;
  parts = std::max<size_t>(1, std::min(parts, width));
  std::vector<std::pair<size_t, size_t>> out;
  size_t start = lo;
  for (size_t k = 0; k < parts; ++k) {
    const size_t len = width / parts + (k < width % parts ? 1 : 0);
    out.push_back({start, start + len});
    start += len;
  }
  return out;
}

double CellTrueCount(const Histogram& x, size_t cols, const Cell& cell) {
  double total = 0.0;
  for (size_t r = cell.r0; r < cell.r1; ++r) {
    for (size_t c = cell.c0; c < cell.c1; ++c) {
      total += x[r * cols + c];
    }
  }
  return total;
}

}  // namespace

Result<TwoPhaseMechanism::Output> AGrid(const Histogram& x, double epsilon,
                                        const AGridOptions& opts, Rng& rng) {
  OSDP_RETURN_IF_ERROR(ValidateEpsilon(epsilon));
  if (opts.rows == 0 || opts.cols == 0 ||
      x.size() != opts.rows * opts.cols) {
    return Status::InvalidArgument("x.size() must equal rows * cols");
  }
  if (opts.coarse_budget_ratio <= 0.0 || opts.coarse_budget_ratio >= 1.0) {
    return Status::InvalidArgument("coarse_budget_ratio must be in (0,1)");
  }
  if (opts.granularity_c <= 0.0) {
    return Status::InvalidArgument("granularity_c must be positive");
  }
  const double eps1 = opts.coarse_budget_ratio * epsilon;
  const double eps2 = epsilon - eps1;

  // Coarse granularity: m1 = max(2, ceil(sqrt(N*eps1/c)/2)) clipped to the
  // domain (the original's first-level rule).
  const double n_total = x.Total();
  const auto m1 = static_cast<size_t>(std::max(
      2.0, std::ceil(std::sqrt(n_total * eps1 / opts.granularity_c) / 2.0)));
  const auto rows1 = std::min(opts.rows, m1);
  const auto cols1 = std::min(opts.cols, m1);

  Histogram estimate(x.size());
  BinGroups groups;
  const double scale1 = 2.0 / eps1;
  const double scale2 = 2.0 / eps2;
  const double c2 = std::sqrt(2.0) * opts.granularity_c;

  for (const auto& [r0, r1] : SplitAxis(0, opts.rows, rows1)) {
    for (const auto& [c0, c1] : SplitAxis(0, opts.cols, cols1)) {
      const Cell coarse{r0, r1, c0, c1};
      const double noisy1 =
          std::max(0.0, CellTrueCount(x, opts.cols, coarse) +
                            SampleLaplace(rng, scale1));
      // Adaptive second level: m2 per axis from the noisy coarse count.
      auto m2 = static_cast<size_t>(
          std::ceil(std::sqrt(std::max(1.0, noisy1 * eps2 / c2))));
      m2 = std::clamp<size_t>(m2, 1, opts.max_fine_per_axis);
      for (const auto& [fr0, fr1] : SplitAxis(r0, r1, m2)) {
        for (const auto& [fc0, fc1] : SplitAxis(c0, c1, m2)) {
          const Cell fine{fr0, fr1, fc0, fc1};
          double noisy2 = CellTrueCount(x, opts.cols, fine) +
                          SampleLaplace(rng, scale2);
          if (opts.clamp_non_negative) noisy2 = std::max(noisy2, 0.0);
          const double bins =
              static_cast<double>((fr1 - fr0) * (fc1 - fc0));
          std::vector<uint32_t> group;
          group.reserve(static_cast<size_t>(bins));
          for (size_t r = fr0; r < fr1; ++r) {
            for (size_t c = fc0; c < fc1; ++c) {
              estimate[r * opts.cols + c] = noisy2 / bins;
              group.push_back(static_cast<uint32_t>(r * opts.cols + c));
            }
          }
          groups.push_back(std::move(group));
        }
      }
    }
  }
  return TwoPhaseMechanism::Output{std::move(estimate), std::move(groups)};
}

namespace {

class AGridTwoPhase final : public TwoPhaseMechanism {
 public:
  explicit AGridTwoPhase(AGridOptions opts) : opts_(opts) {}
  const std::string& name() const override {
    static const std::string kName = "AGrid";
    return kName;
  }
  Result<Output> Run(const Histogram& x, double epsilon,
                     Rng& rng) const override {
    return AGrid(x, epsilon, opts_, rng);
  }

 private:
  AGridOptions opts_;
};

}  // namespace

std::unique_ptr<TwoPhaseMechanism> MakeAGridTwoPhase(AGridOptions opts) {
  return std::make_unique<AGridTwoPhase>(opts);
}

}  // namespace osdp
