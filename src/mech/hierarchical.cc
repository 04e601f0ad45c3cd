#include "src/mech/hierarchical.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/common/check.h"
#include "src/mech/guarantee.h"
#include "src/mech/noise.h"

namespace osdp {

namespace {

// The implicit interval tree, stored breadth-first as flat arrays (root at
// 0). Building breadth-first appends a node's children in one run, so node i
// has children [first_child[i], first_child[i] + child_count[i]), and a leaf
// has child_count 0.
struct Tree {
  std::vector<size_t> begin;
  std::vector<size_t> end;  // node i covers [begin[i], end[i])
  std::vector<size_t> first_child;
  std::vector<size_t> child_count;

  size_t size() const { return begin.size(); }
};

Tree BuildTree(size_t d, int fanout) {
  Tree t;
  // A tree with fanout >= 2 over d leaves has fewer than 2d nodes.
  for (auto* v : {&t.begin, &t.end, &t.first_child, &t.child_count}) {
    v->reserve(2 * d);
  }
  t.begin.push_back(0);
  t.end.push_back(d);
  for (size_t idx = 0; idx < t.begin.size(); ++idx) {
    const size_t begin = t.begin[idx];
    const size_t end = t.end[idx];
    const size_t width = end - begin;
    t.first_child.push_back(t.begin.size());
    if (width <= 1) {
      t.child_count.push_back(0);
      continue;
    }
    const size_t child_width =
        (width + static_cast<size_t>(fanout) - 1) / static_cast<size_t>(fanout);
    for (size_t b = begin; b < end; b += child_width) {
      t.begin.push_back(b);
      t.end.push_back(std::min(end, b + child_width));
    }
    t.child_count.push_back(t.begin.size() - t.first_child[idx]);
  }
  return t;
}

// Number of levels: follow the first-child chain from the root.
int TreeHeight(const Tree& t) {
  int height = 1;
  for (size_t idx = 0; t.child_count[idx] != 0; idx = t.first_child[idx]) {
    ++height;
  }
  return height;
}

}  // namespace

Result<Histogram> HierarchicalRelease(const Histogram& x, double epsilon,
                                      const HierarchicalOptions& opts,
                                      Rng& rng) {
  OSDP_RETURN_IF_ERROR(ValidateEpsilon(epsilon));
  if (opts.fanout < 2) {
    return Status::InvalidArgument("fanout must be at least 2");
  }
  const size_t d = x.size();
  if (d == 0) return Status::InvalidArgument("empty histogram");

  const Tree tree = BuildTree(d, opts.fanout);
  const size_t n = tree.size();
  const int h = TreeHeight(tree);
  // Each record contributes to one node per level: sensitivity 2h (bounded).
  const double scale = 2.0 * static_cast<double>(h) / epsilon;

  // Noisy counts for every node, drawn in arena order.
  std::vector<double> prefix(d + 1, 0.0);
  for (size_t i = 0; i < d; ++i) prefix[i + 1] = prefix[i] + x[i];
  std::vector<double> noisy(n);
  for (size_t i = 0; i < n; ++i) {
    noisy[i] = prefix[tree.end[i]] - prefix[tree.begin[i]];
  }
  AddLaplace(noisy, 2 * int64_t{h}, epsilon, rng);

  // Upward pass, children before parents: reverse arena order, since the
  // arena is built breadth-first. For a node with k children whose subtree
  // estimates are already variance-optimal, the standard Hay et al. weights
  // are (k^l - k^{l-1})/(k^l - 1) on the node's own noisy count with l the
  // subtree height; we use the equivalent recursive form with per-node
  // effective variances. Child sums run in child order.
  const double own_var = scale * scale * 2.0;
  std::vector<double> estimate(n);
  std::vector<double> variance(n, own_var);
  for (size_t idx = n; idx-- > 0;) {
    const size_t first = tree.first_child[idx];
    const size_t last = first + tree.child_count[idx];
    if (first == last) {
      estimate[idx] = noisy[idx];
      continue;
    }
    double child_sum = 0.0;
    double child_var = 0.0;
    for (size_t c = first; c < last; ++c) {
      child_sum += estimate[c];
      child_var += variance[c];
    }
    // Inverse-variance weighting of the two estimators of this node's count.
    const double w = child_var / (own_var + child_var);
    estimate[idx] = w * noisy[idx] + (1.0 - w) * child_sum;
    variance[idx] = own_var * child_var / (own_var + child_var);
  }

  // Downward pass, root to leaves: distribute each node's residual across
  // its children. The GLS projection onto Σ children = parent corrects each
  // child proportionally to its subtree variance (noisier children absorb
  // more of the discrepancy); with equal child variances — every balanced
  // tree — this reduces to the equal split. The equal split also covers
  // variances that underflow to zero at an extreme ε.
  for (size_t idx = 0; idx < n; ++idx) {
    const size_t first = tree.first_child[idx];
    const size_t last = first + tree.child_count[idx];
    if (first == last) continue;
    double child_sum = 0.0;
    double var_sum = 0.0;
    for (size_t c = first; c < last; ++c) {
      child_sum += estimate[c];
      var_sum += variance[c];
    }
    const double residual = estimate[idx] - child_sum;
    if (var_sum > 0.0) {
      for (size_t c = first; c < last; ++c) {
        estimate[c] += residual * (variance[c] / var_sum);
      }
    } else {
      const double share = residual / static_cast<double>(last - first);
      for (size_t c = first; c < last; ++c) estimate[c] += share;
    }
  }

  Histogram leaves(d);
  for (size_t idx = 0; idx < n; ++idx) {
    if (tree.child_count[idx] != 0) continue;
    OSDP_CHECK(tree.end[idx] - tree.begin[idx] == 1);
    double v = estimate[idx];
    if (opts.clamp_non_negative) v = std::max(v, 0.0);
    leaves[tree.begin[idx]] = v;
  }
  return leaves;
}

namespace {

class HierarchicalTwoPhase final : public TwoPhaseMechanism {
 public:
  explicit HierarchicalTwoPhase(HierarchicalOptions opts) : opts_(opts) {}
  const std::string& name() const override {
    static const std::string kName = "Hierarchical";
    return kName;
  }
  Result<Output> Run(const Histogram& x, double epsilon,
                     Rng& rng) const override {
    OSDP_ASSIGN_OR_RETURN(Histogram estimate,
                          HierarchicalRelease(x, epsilon, opts_, rng));
    BinGroups groups(x.size());
    for (uint32_t i = 0; i < x.size(); ++i) groups[i] = {i};
    return Output{std::move(estimate), std::move(groups)};
  }

 private:
  HierarchicalOptions opts_;
};

}  // namespace

std::unique_ptr<TwoPhaseMechanism> MakeHierarchicalTwoPhase(
    HierarchicalOptions opts) {
  return std::make_unique<HierarchicalTwoPhase>(opts);
}

}  // namespace osdp
