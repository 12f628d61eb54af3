// Flattened ensemble predictor: every trained tree's node table packed
// into one contiguous array for branch-light batch inference.
//
// Nodes are laid out in depth-first pre-order, so each internal node's
// left child is the next array element and only the right-child index is
// stored; a leaf is marked by right < 0 and stores its weight in the
// shared key slot. Descent is then a tight loop over one 16-byte node
// record per level with a single predictable branch, instead of chasing
// 40-byte Node records through per-tree vectors.
//
// Every GradientBoostedTrees prediction runs through one. It accumulates
// the trees in ensemble order as base + learning_rate * leaf, so it is
// bitwise identical to summing RegressionTree::predict over the trees —
// for single rows, batches, and any thread-pool width (batch inference
// walks blocks of rows tree by tree and parallelises over blocks, one
// writer per row).
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
  /// it stays valid after the model is destroyed.
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
  /// rows on the global thread pool. Throws PreconditionError when the
  /// matrix has rows and is narrower than predict() requires.
  std::vector<double> predict_matrix(const FeatureMatrix& rows) const;

  /// Batch prediction over a dataset's feature rows (targets ignored);
  /// same width rule as predict_matrix.
  std::vector<double> predict_dataset(const Dataset& data) const;

  std::size_t tree_count() const { return roots_.size(); }
  std::size_t node_count() const { return nodes_.size(); }

 private:
  /// One packed node: internal nodes hold the split threshold in `key`
  /// and the absolute index of the right child; the left child is the
  /// next node. Leaves hold the leaf weight in `key` and right == -1.
  struct FlatNode {
    double key = 0.0;
    std::uint32_t feature = 0;
    std::int32_t right = -1;
  };

  CompiledForest() = default;

  /// Leaf weight of the tree starting at nodes_[root] for row `x`, which
  /// holds at least min_width_ features.
  double leaf(std::uint32_t root, const double* x) const;

  /// Predictions for the rows of a row-major buffer of `width` features
  /// per row.
  std::vector<double> predict_batch(std::span<const double> x,
                                    std::size_t width) const;

  double base_score_ = 0.0;
  /// Largest split feature + 1 (0 when every tree is a single leaf).
  std::size_t min_width_ = 0;
  double learning_rate_ = 0.0;
  std::vector<std::uint32_t> roots_;  // start of each tree in nodes_
  std::vector<FlatNode> nodes_;
};

}  // namespace ceal::ml
