// Flattened ensemble predictor: every trained tree's node table packed
// into one contiguous array and descended without a data-dependent branch.
//
// Layout. A node is one record {double key; uint32 feature; uint32
// child[2]} (24 bytes with padding). An internal node holds its split
// threshold in `key` and the absolute indices of both children
// (pre-order, so the left child is the next record). A leaf holds its
// weight in `key` and points both children at itself, so a step taken
// from a leaf stays on it. compile()
// records each tree's depth (edges on its longest root-to-leaf path), and
// every descent of that tree is exactly depth steps of
//
//   i = node.child[!(x[node.feature] <= node.key)]
//
// whatever path the row takes: a row that reaches a shallow leaf early
// stays there. The test is written !(x <= key) so that NaN goes right, as
// in RegressionTree::predict. A single-leaf tree has depth 0 and reads no
// feature.
//
// Lanes. One descent is a chain of dependent loads, so every prediction
// runs many independent descents side by side and lets the core overlap
// them. The same step kernel serves two lane layouts:
//   - batches (predict_matrix) take 64-row blocks; each
//     tree is walked level-major over the block's rows, one lane per row;
//   - a single row (predict) walks 16 consecutive trees at a time, one
//     lane per tree, for the group's largest depth.
//
// Every GradientBoostedTrees prediction runs through one. Each row adds
// base + learning_rate * leaf over the trees in ensemble order, so it is
// bitwise identical to summing RegressionTree::predict over the trees —
// for single rows, batches, and any thread-pool width (blocks run in
// parallel, one writer per row).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/dataset.h"

namespace ceal::ml {

class GradientBoostedTrees;

class CompiledForest {
 public:
  /// Flattens a fitted ensemble. The forest snapshots the model's trees;
  /// it stays valid after the model is destroyed. Throws
  /// PreconditionError when the ensemble has more nodes than a uint32
  /// index holds.
  static CompiledForest compile(const GradientBoostedTrees& model);

  /// Ensemble prediction for one feature vector: base_score plus
  /// learning_rate * leaf weight, summed over the trees in order.
  ///
  /// Every prediction call checks the row width once, up front, instead
  /// of at every visited node: a row narrower than the forest's largest
  /// split feature + 1 throws PreconditionError even when no split on a
  /// missing feature lies on its path (a node the row never reaches
  /// still counts).
  double predict(std::span<const double> features) const;

  /// Batch prediction over a feature matrix, parallel over blocks of
  /// rows on the global thread pool. Feature f of row i is read from
  /// column first_column + f, so a model of a sub-space scores its
  /// column window of a wider matrix in place. Throws PreconditionError
  /// when the matrix has rows and first_column plus the width predict()
  /// requires exceeds the matrix width.
  std::vector<double> predict_matrix(const FeatureMatrix& rows,
                                     std::size_t first_column = 0) const;

  std::size_t tree_count() const { return trees_.size(); }
  std::size_t node_count() const { return nodes_.size(); }

 private:
  /// One packed node. Internal: split threshold in `key`, children at
  /// child[0] (x <= key) and child[1] (otherwise, NaN included). Leaf:
  /// weight in `key`, both children its own index, feature 0.
  struct FlatNode {
    double key = 0.0;
    std::uint32_t feature = 0;
    std::uint32_t child[2] = {0, 0};
  };

  /// Where a tree starts in nodes_, and how many steps reach its leaves.
  struct TreeSpan {
    std::uint32_t root = 0;
    std::uint32_t depth = 0;
  };

  CompiledForest() = default;

  /// Advances `lanes` independent descents by `steps` levels. Lane k
  /// sits at node at[k] and reads the row at x + k * stride (stride 0:
  /// every lane reads the same row).
  void descend(std::uint32_t* at, std::size_t lanes, std::uint32_t steps,
               const double* x, std::size_t stride) const;

  double base_score_ = 0.0;
  /// Largest split feature + 1 (0 when every tree is a single leaf).
  std::size_t min_width_ = 0;
  double learning_rate_ = 0.0;
  std::vector<TreeSpan> trees_;  // ensemble order
  std::vector<FlatNode> nodes_;
};

}  // namespace ceal::ml
