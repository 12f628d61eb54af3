#include "ml/compiled_forest.h"

#include <algorithm>
#include <utility>

#include "core/error.h"
#include "core/parallel.h"
#include "ml/gbt.h"

namespace ceal::ml {

namespace {

/// Rows x trees below which the pool dispatch overhead outweighs the
/// parallel win.
constexpr std::size_t kParallelPredictWork = 1 << 14;

/// Rows per tree-major block of batch prediction (and per pool task).
constexpr std::size_t kBlockRows = 64;

}  // namespace

CompiledForest CompiledForest::compile(const GradientBoostedTrees& model) {
  CEAL_EXPECT_MSG(model.is_fitted(), "cannot compile an unfitted model");
  CompiledForest out;
  out.base_score_ = model.base_score();
  out.learning_rate_ = model.params().learning_rate;
  out.roots_.reserve(model.tree_count());
  std::size_t total = 0;
  for (const auto& tree : model.trees()) total += tree.node_count();
  out.nodes_.reserve(total);

  for (const auto& tree : model.trees()) {
    const auto src = tree.export_nodes();
    out.roots_.push_back(static_cast<std::uint32_t>(out.nodes_.size()));
    // Iterative pre-order emission: the left child always lands at
    // parent + 1; the right child's slot is patched once its subtree
    // starts. The explicit stack keeps degenerate chains (depth ~ node
    // count) off the call stack.
    std::vector<std::pair<std::int32_t, std::int32_t>> stack;  // src, patch
    stack.emplace_back(0, -1);
    while (!stack.empty()) {
      const auto [s, patch] = stack.back();
      stack.pop_back();
      const auto flat = static_cast<std::int32_t>(out.nodes_.size());
      if (patch >= 0) out.nodes_[static_cast<std::size_t>(patch)].right = flat;
      const TreeNodeData& d = src[static_cast<std::size_t>(s)];
      FlatNode node;
      if (d.left < 0) {
        node.key = d.weight;
      } else {
        node.key = d.threshold;
        node.feature = static_cast<std::uint32_t>(d.feature);
        out.min_width_ = std::max(out.min_width_, d.feature + 1);
        stack.emplace_back(d.right, flat);  // after the whole left subtree
        stack.emplace_back(d.left, -1);     // next emission: flat + 1
      }
      out.nodes_.push_back(node);
    }
  }
  CEAL_ENSURE(out.nodes_.size() == total);
  return out;
}

double CompiledForest::leaf(std::uint32_t root, const double* x) const {
  std::size_t i = root;
  for (;;) {
    const FlatNode& n = nodes_[i];
    if (n.right < 0) return n.key;
    i = x[n.feature] <= n.key ? i + 1 : static_cast<std::size_t>(n.right);
  }
}

double CompiledForest::predict(std::span<const double> features) const {
  CEAL_EXPECT_MSG(features.size() >= min_width_,
                  "row narrower than the forest's largest split feature");
  double out = base_score_;
  for (const std::uint32_t root : roots_) {
    out += learning_rate_ * leaf(root, features.data());
  }
  return out;
}

std::vector<double> CompiledForest::predict_batch(std::span<const double> x,
                                                  std::size_t width) const {
  const std::size_t n = x.size() / width;
  CEAL_EXPECT_MSG(n == 0 || width >= min_width_,
                  "row narrower than the forest's largest split feature");
  std::vector<double> out(n, base_score_);
  // Tree-major within a block: one tree's nodes stay hot while the
  // block's rows descend it. Each row still adds its trees in ensemble
  // order, so out[i] is bitwise predict(row i).
  const auto fill_block = [&](std::size_t b) {
    const std::size_t lo = b * kBlockRows;
    const std::size_t hi = std::min(n, lo + kBlockRows);
    for (const std::uint32_t root : roots_) {
      for (std::size_t i = lo; i < hi; ++i) {
        out[i] += learning_rate_ * leaf(root, x.data() + i * width);
      }
    }
  };
  const std::size_t blocks = (n + kBlockRows - 1) / kBlockRows;
  if (blocks > 1 && n * roots_.size() >= kParallelPredictWork) {
    ceal::parallel_apply(0, blocks, fill_block);
  } else {
    for (std::size_t b = 0; b < blocks; ++b) fill_block(b);
  }
  return out;
}

std::vector<double> CompiledForest::predict_matrix(
    const FeatureMatrix& rows) const {
  return predict_batch(rows.values(), rows.n_features());
}

std::vector<double> CompiledForest::predict_dataset(const Dataset& data) const {
  return predict_batch(data.values(), data.n_features());
}

}  // namespace ceal::ml
