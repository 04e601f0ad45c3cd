#include "src/mech/hierarchical.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/common/check.h"
#include "src/common/distributions.h"
#include "src/mech/guarantee.h"
#include "src/runtime/thread_pool.h"

namespace osdp {

namespace {

// One node of the implicit interval tree.
struct Node {
  size_t begin;
  size_t end;  // [begin, end)
  double noisy = 0.0;
  double estimate = 0.0;
  std::vector<size_t> children;  // indices into the node arena
};

// Builds the tree breadth-first; returns the node arena (root at 0).
std::vector<Node> BuildTree(size_t d, int fanout) {
  std::vector<Node> arena;
  arena.push_back({0, d, 0.0, 0.0, {}});
  for (size_t idx = 0; idx < arena.size(); ++idx) {
    const size_t begin = arena[idx].begin;
    const size_t end = arena[idx].end;
    const size_t width = end - begin;
    if (width <= 1) continue;
    const size_t child_width =
        (width + static_cast<size_t>(fanout) - 1) / static_cast<size_t>(fanout);
    for (size_t b = begin; b < end; b += child_width) {
      const size_t e = std::min(end, b + child_width);
      arena.push_back({b, e, 0.0, 0.0, {}});
      arena[idx].children.push_back(arena.size() - 1);
    }
  }
  return arena;
}

int TreeHeight(const std::vector<Node>& arena) {
  // Height = number of levels; follow first-child chain from the root.
  int height = 1;
  size_t idx = 0;
  while (!arena[idx].children.empty()) {
    idx = arena[idx].children[0];
    ++height;
  }
  return height;
}

// Level boundaries of the breadth-first arena: level l occupies
// [offsets[l], offsets[l+1]). BFS construction appends every level's children
// contiguously, which is what makes the consistency passes level-
// synchronously shardable with disjoint writes.
std::vector<size_t> LevelOffsets(const std::vector<Node>& arena) {
  std::vector<size_t> offsets{0, 1};
  while (offsets.back() < arena.size()) {
    size_t children = 0;
    for (size_t i = offsets[offsets.size() - 2]; i < offsets.back(); ++i) {
      children += arena[i].children.size();
    }
    OSDP_CHECK(children > 0);  // BFS fills the arena level by level
    offsets.push_back(offsets.back() + children);
  }
  return offsets;
}

// Nodes per ParallelForBlocked chunk in the sharded passes; small levels
// near the root degenerate to a single (caller-run) chunk.
constexpr size_t kNodeChunk = 256;

}  // namespace

Result<TwoPhaseMechanism::Output> HierarchicalRelease(
    const Histogram& x, double epsilon, const HierarchicalOptions& opts,
    Rng& rng) {
  OSDP_RETURN_IF_ERROR(ValidateEpsilon(epsilon));
  if (opts.fanout < 2) {
    return Status::InvalidArgument("fanout must be at least 2");
  }
  const size_t d = x.size();
  if (d == 0) return Status::InvalidArgument("empty histogram");

  std::vector<Node> arena = BuildTree(d, opts.fanout);
  const int h = TreeHeight(arena);
  // Each record contributes to one node per level: sensitivity 2h (bounded).
  const double scale = 2.0 * static_cast<double>(h) / epsilon;

  // Noisy counts for every node.
  std::vector<double> prefix(d + 1, 0.0);
  for (size_t i = 0; i < d; ++i) prefix[i + 1] = prefix[i] + x[i];
  for (Node& node : arena) {
    const double truth = prefix[node.end] - prefix[node.begin];
    node.noisy = truth + SampleLaplace(rng, scale);
  }

  // Upward pass (children before parents). For a node with k children whose
  // subtree estimates are already variance-optimal, the standard Hay et al.
  // weights are (k^l - k^{l-1})/(k^l - 1) on the node's own noisy count with
  // l the subtree height; we use the equivalent recursive form with
  // per-node effective variances. Each node writes only its own estimate and
  // variance slot, and its child sums run in fixed (arena) child order, so
  // the per-node arithmetic is identical however nodes of one level are
  // scheduled.
  std::vector<double> variance(arena.size(), scale * scale * 2.0);
  const double own_var = scale * scale * 2.0;
  const auto upward_node = [&](size_t idx) {
    Node& node = arena[idx];
    if (node.children.empty()) {
      node.estimate = node.noisy;
      return;
    }
    double child_sum = 0.0;
    double child_var = 0.0;
    for (size_t c : node.children) {
      child_sum += arena[c].estimate;
      child_var += variance[c];
    }
    // Inverse-variance weighting of the two estimators of this node's count.
    const double w = child_var / (own_var + child_var);
    node.estimate = w * node.noisy + (1.0 - w) * child_sum;
    variance[idx] = own_var * child_var / (own_var + child_var);
  };

  // Downward pass: distribute each node's residual across its children.
  // The GLS projection onto Σ children = parent corrects each child
  // proportionally to its subtree variance (noisier children absorb more of
  // the discrepancy); with equal child variances — every balanced tree —
  // this reduces to the equal split. The equal split also covers variances
  // that underflow to zero at an extreme ε.
  // A node writes only its own children's estimates (disjoint across the
  // nodes of one level), so the same scheduling argument applies.
  const auto downward_node = [&](size_t idx) {
    Node& node = arena[idx];
    if (node.children.empty()) return;
    double child_sum = 0.0;
    double var_sum = 0.0;
    for (size_t c : node.children) {
      child_sum += arena[c].estimate;
      var_sum += variance[c];
    }
    const double residual = node.estimate - child_sum;
    if (var_sum > 0.0) {
      for (size_t c : node.children) {
        arena[c].estimate += residual * (variance[c] / var_sum);
      }
    } else {
      const double share =
          residual / static_cast<double>(node.children.size());
      for (size_t c : node.children) arena[c].estimate += share;
    }
  };

  if (opts.pool == nullptr) {
    // Serial reference: children before parents = reverse arena order (the
    // arena is built breadth-first), then root to leaves.
    for (size_t idx = arena.size(); idx-- > 0;) upward_node(idx);
    for (size_t idx = 0; idx < arena.size(); ++idx) downward_node(idx);
  } else {
    // Level-synchronous sharding: a level's nodes depend only on levels
    // already finished (children below for the upward pass, parents above
    // for the downward pass), and ParallelForBlocked is a barrier, so the
    // per-node work and its inputs match the serial reference exactly —
    // bit-identical estimates at any thread count.
    const std::vector<size_t> offsets = LevelOffsets(arena);
    const size_t num_levels = offsets.size() - 1;
    for (size_t l = num_levels; l-- > 0;) {
      opts.pool->ParallelForBlocked(
          offsets[l], offsets[l + 1], kNodeChunk,
          [&](size_t lo, size_t hi) {
            for (size_t i = lo; i < hi; ++i) upward_node(i);
          });
    }
    for (size_t l = 0; l < num_levels; ++l) {
      opts.pool->ParallelForBlocked(
          offsets[l], offsets[l + 1], kNodeChunk,
          [&](size_t lo, size_t hi) {
            for (size_t i = lo; i < hi; ++i) downward_node(i);
          });
    }
  }

  Histogram estimate(d);
  BinGroups groups;
  groups.reserve(d);
  for (const Node& node : arena) {
    if (!node.children.empty()) continue;
    OSDP_CHECK(node.end - node.begin == 1);
    double v = node.estimate;
    if (opts.clamp_non_negative) v = std::max(v, 0.0);
    estimate[node.begin] = v;
  }
  for (uint32_t i = 0; i < d; ++i) groups.push_back({i});
  return TwoPhaseMechanism::Output{std::move(estimate), std::move(groups)};
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
    return HierarchicalRelease(x, epsilon, opts_, rng);
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
