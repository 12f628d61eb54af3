#include "ml/compiled_forest.h"

#include <utility>

#include "core/error.h"
#include "core/parallel.h"
#include "ml/gbt.h"

namespace ceal::ml {

namespace {

/// Rows x trees below which the pool dispatch overhead outweighs the
/// parallel win.
constexpr std::size_t kParallelPredictWork = 1 << 14;

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
        stack.emplace_back(d.right, flat);  // after the whole left subtree
        stack.emplace_back(d.left, -1);     // next emission: flat + 1
      }
      out.nodes_.push_back(node);
    }
  }
  CEAL_ENSURE(out.nodes_.size() == total);
  return out;
}

double CompiledForest::predict(std::span<const double> features) const {
  double out = base_score_;
  for (const std::uint32_t root : roots_) {
    std::size_t i = root;
    for (;;) {
      const FlatNode& n = nodes_[i];
      if (n.right < 0) {
        out += learning_rate_ * n.key;
        break;
      }
      CEAL_EXPECT(n.feature < features.size());
      i = features[n.feature] <= n.key ? i + 1
                                       : static_cast<std::size_t>(n.right);
    }
  }
  return out;
}

template <typename RowOf>
std::vector<double> CompiledForest::predict_batch(std::size_t n,
                                                  const RowOf& row_of) const {
  std::vector<double> out(n);
  const auto fill = [&](std::size_t i) { out[i] = predict(row_of(i)); };
  if (n > 1 && n * roots_.size() >= kParallelPredictWork) {
    ceal::parallel_apply(0, n, fill);
  } else {
    for (std::size_t i = 0; i < n; ++i) fill(i);
  }
  return out;
}

std::vector<double> CompiledForest::predict_matrix(
    const FeatureMatrix& rows) const {
  return predict_batch(rows.size(),
                       [&](std::size_t i) { return rows.row(i); });
}

std::vector<double> CompiledForest::predict_dataset(const Dataset& data) const {
  return predict_batch(data.size(),
                       [&](std::size_t i) { return data.row(i); });
}

}  // namespace ceal::ml
