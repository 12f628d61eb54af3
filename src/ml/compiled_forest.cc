#include "ml/compiled_forest.h"

#include <algorithm>
#include <array>
#include <limits>

#include "core/error.h"
#include "core/parallel.h"
#include "ml/gbt.h"

namespace ceal::ml {

namespace {

/// Rows x trees below which the pool dispatch overhead outweighs the
/// parallel win.
constexpr std::size_t kParallelPredictWork = 1 << 14;

/// Rows per block of batch prediction (and per pool task): the lanes of
/// the row-interleaved descent.
constexpr std::size_t kBlockRows = 64;

/// Trees descended together by single-row predict().
constexpr std::size_t kTreeLanes = 16;

}  // namespace

CompiledForest CompiledForest::compile(const GradientBoostedTrees& model) {
  CEAL_EXPECT_MSG(model.is_fitted(), "cannot compile an unfitted model");
  CompiledForest out;
  out.base_score_ = model.base_score();
  out.learning_rate_ = model.params().learning_rate;
  std::size_t total = 0;
  for (const auto& tree : model.trees()) total += tree.node_count();
  CEAL_EXPECT_MSG(total <= std::numeric_limits<std::uint32_t>::max(),
                  "forest has more nodes than a uint32 index holds");
  out.trees_.reserve(model.tree_count());
  out.nodes_.reserve(total);

  // Iterative pre-order emission: a node's slot in its parent is patched
  // when the node is emitted, and its depth rides on the stack. The
  // explicit stack keeps degenerate chains (depth ~ node count) off the
  // call stack.
  struct Pending {
    std::int32_t src;
    std::uint32_t parent;  // flat index; unused for the root
    std::uint32_t side;    // 0 left, 1 right
    std::uint32_t depth;   // edges from the root
  };
  std::vector<Pending> stack;
  for (const auto& tree : model.trees()) {
    const auto src = tree.export_nodes();
    const auto root = static_cast<std::uint32_t>(out.nodes_.size());
    TreeSpan span{root, 0};
    stack.push_back({0, root, 0, 0});
    while (!stack.empty()) {
      const Pending p = stack.back();
      stack.pop_back();
      const auto flat = static_cast<std::uint32_t>(out.nodes_.size());
      if (flat != root) out.nodes_[p.parent].child[p.side] = flat;
      const TreeNodeData& d = src[static_cast<std::size_t>(p.src)];
      FlatNode node;
      if (d.left < 0) {
        node.key = d.weight;
        node.child[0] = node.child[1] = flat;
        span.depth = std::max(span.depth, p.depth);
      } else {
        node.key = d.threshold;
        node.feature = static_cast<std::uint32_t>(d.feature);
        out.min_width_ = std::max(out.min_width_, d.feature + 1);
        stack.push_back({d.right, flat, 1, p.depth + 1});  // after the left
        stack.push_back({d.left, flat, 0, p.depth + 1});   // subtree
      }
      out.nodes_.push_back(node);
    }
    out.trees_.push_back(span);
  }
  CEAL_ENSURE(out.nodes_.size() == total);
  return out;
}

// Inlined so each call site gets a copy specialised to its constant
// stride (and lane count, where it has one).
[[gnu::always_inline]] inline void CompiledForest::descend(
    std::uint32_t* at, std::size_t lanes, std::uint32_t steps,
    const double* x, std::size_t stride) const {
  const FlatNode* nodes = nodes_.data();
  for (std::uint32_t s = 0; s < steps; ++s) {
    const double* row = x;
    for (std::size_t k = 0; k < lanes; ++k, row += stride) {
      const FlatNode& n = nodes[at[k]];
      at[k] = n.child[!(row[n.feature] <= n.key)];
    }
  }
}

double CompiledForest::predict(std::span<const double> features) const {
  CEAL_EXPECT_MSG(features.size() >= min_width_,
                  "row narrower than the forest's largest split feature");
  // A group runs its deepest tree's step count; shallower trees idle on
  // their leaves. Any step at all means some split exists, so the row has
  // the feature 0 that a leaf reads.
  double out = base_score_;
  std::array<std::uint32_t, kTreeLanes> at{};
  for (std::size_t first = 0; first < trees_.size(); first += kTreeLanes) {
    const std::size_t lanes = std::min(kTreeLanes, trees_.size() - first);
    std::uint32_t steps = 0;
    for (std::size_t k = 0; k < lanes; ++k) {
      at[k] = trees_[first + k].root;
      steps = std::max(steps, trees_[first + k].depth);
    }
    if (lanes == kTreeLanes) {  // full group: a fixed trip count
      descend(at.data(), kTreeLanes, steps, features.data(), 0);
    } else {
      descend(at.data(), lanes, steps, features.data(), 0);
    }
    for (std::size_t k = 0; k < lanes; ++k) {
      out += learning_rate_ * nodes_[at[k]].key;
    }
  }
  return out;
}

std::vector<double> CompiledForest::predict_matrix(
    const FeatureMatrix& matrix, std::size_t first_column) const {
  const std::span<const double> x = matrix.values();
  const std::size_t width = matrix.n_features();
  const std::size_t n = matrix.size();
  CEAL_EXPECT_MSG(n == 0 || first_column + min_width_ <= width,
                  "row narrower than the forest's largest split feature");
  std::vector<double> out(n, base_score_);
  // Tree by tree within a block: one tree's nodes stay hot while the
  // block's rows descend it side by side. Each row still adds its trees
  // in ensemble order, so out[i] is bitwise predict(row i).
  const auto fill_block = [&](std::size_t b) {
    const std::size_t lo = b * kBlockRows;
    const std::size_t lanes = std::min(kBlockRows, n - lo);
    const double* rows = x.data() + lo * width + first_column;
    std::array<std::uint32_t, kBlockRows> at{};
    for (const TreeSpan& tree : trees_) {
      std::fill_n(at.begin(), lanes, tree.root);
      descend(at.data(), lanes, tree.depth, rows, width);
      for (std::size_t k = 0; k < lanes; ++k) {
        out[lo + k] += learning_rate_ * nodes_[at[k]].key;
      }
    }
  };
  const std::size_t blocks = (n + kBlockRows - 1) / kBlockRows;
  if (blocks > 1 && n * trees_.size() >= kParallelPredictWork) {
    ceal::parallel_apply(0, blocks, fill_block);
  } else {
    for (std::size_t b = 0; b < blocks; ++b) fill_block(b);
  }
  return out;
}


}  // namespace ceal::ml
