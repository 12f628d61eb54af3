// Regression tree grown by exact greedy split search on second-order
// gradient statistics, following the XGBoost formulation (Chen & Guestrin,
// KDD'16), which the paper uses via xgboost.XGBRegressor.
//
// For squared-error boosting the caller supplies per-example gradients
// g_i = prediction_i - y_i and hessians h_i = 1; the optimal leaf weight
// is w* = -G/(H+lambda) and the split gain is
//   1/2 [G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda) - G^2/(H+lambda)] - gamma.
// Fitting with g_i = -y_i, h_i = 1, lambda = 0 recovers a plain CART
// regression tree (leaves = mean target), which RandomForest exploits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/rng.h"
#include "ml/dataset.h"

namespace ceal::telemetry {
class Telemetry;
}

namespace ceal::ml {

/// Split-finding strategy (XGBoost's `exact` and `hist` split finders).
///   kExact: per-node sort of every feature; the serial reference path.
///     Every distinct value boundary is a candidate, with the threshold
///     at 0.5 * (v + v_next). Best for the tiny sample budgets of the
///     surrogates (tens of rows) and the path whose results the
///     reproduction benchmarks are pinned to.
///   kQuantized: quantile binning (at most max_bins <= kMaxBins bins per
///     feature, see quantile_bins) computed once per dataset into a
///     structure-of-arrays QuantizedMatrix (ml/quantized.h), then
///     histogram split search: fused gradient/count accumulation,
///     level-order growth with histogram subtraction, and node-level
///     parallelism. Results are deterministic and independent of the
///     worker count (reduction in feature order, ties broken on the
///     lowest feature index). They are close to kExact but not bitwise
///     equal, even when every value has its own bin: see quantile_bins.
enum class TreeMethod { kExact, kQuantized };

/// Upper bound on TreeParams::max_bins: kQuantized packs bin indices
/// into uint8.
inline constexpr std::size_t kMaxBins = 256;

struct TreeParams {
  std::size_t max_depth = 6;
  /// Minimum number of examples in each child of a split.
  std::size_t min_samples_leaf = 1;
  /// Minimum summed hessian in each child (XGBoost min_child_weight).
  double min_child_weight = 1.0;
  /// L2 regularisation on leaf weights.
  double lambda = 1.0;
  /// Minimum gain required to split (XGBoost gamma).
  double gamma = 0.0;
  /// Fraction of features considered at each tree (0 < colsample <= 1).
  double colsample = 1.0;
  /// Split-finding strategy (see TreeMethod).
  TreeMethod method = TreeMethod::kExact;
  /// Maximum histogram bins per feature (kQuantized; kExact does not
  /// bin). 2 <= max_bins <= kMaxBins.
  std::size_t max_bins = kMaxBins;
};

/// Quantile binning of one feature: `bin_max[b]` is the largest training
/// value of bin b (ascending) and `split_value[b]` the candidate
/// threshold between bins b and b+1, satisfying
/// max(bin b) <= split_value[b] < min(bin b+1) — so partitioning by bin
/// index equals partitioning by `value <= split_value[b]`.
struct FeatureQuantiles {
  std::vector<double> split_value;  ///< size bin_max.size() - 1
  std::vector<double> bin_max;
};

/// Quantile cuts of one feature's sorted values into at most `max_bins`
/// bins — the binning rule of QuantizedMatrix (kQuantized). When the
/// feature has <= max_bins distinct values every value gets its own bin,
/// so the candidate boundaries are the ones kExact scans. The grown trees
/// can still differ from kExact's: thresholds are lo + 0.5 * (hi - lo)
/// rather than 0.5 * (v + v_next), and the gain arithmetic runs in a
/// different order (per-bin gradient sums, a reciprocal table), so
/// near-tied gains can break the other way. The tests pin the two
/// trainers to close predictions and ranking quality
/// (tests/ml/test_quantized.cc), not to identical trees.
FeatureQuantiles quantile_bins(std::span<const double> sorted_vals,
                               std::size_t max_bins);

/// Flattened node for persistence: leaves have left == right == -1 and
/// carry `weight`; internal nodes carry feature/threshold/children.
struct TreeNodeData {
  std::size_t feature = 0;
  double threshold = 0.0;
  std::int32_t left = -1;
  std::int32_t right = -1;
  double weight = 0.0;
};

class QuantizedMatrix;
struct QuantizedWorkspace;

class RegressionTree {
 public:
  explicit RegressionTree(TreeParams params = {});

  /// Grows the tree on the rows of `data` listed in `row_indices`, using
  /// per-row gradient/hessian statistics (indexed like `data` rows).
  ///
  /// When `out_leaf_values` is non-null it must have data.size() entries;
  /// for every trained row r the entry is set to the weight of the leaf
  /// the row landed in (== predict(data.row(r))), so boosting can update
  /// round predictions without re-descending the tree. Entries of rows
  /// not in `row_indices` are left untouched.
  ///
  /// `quantized_cache` (kQuantized only, ml/quantized.h) shares
  /// pre-binned features across the trees of an ensemble; it must have
  /// been built on `data` with this tree's max_bins. When null,
  /// kQuantized quantizes `data` transiently. `quantized_ws` (kQuantized
  /// only) carries the builder's scratch buffers across the trees of an
  /// ensemble fit; when null each tree allocates transient scratch.
  ///
  /// `telemetry` (optional, concurrency-safe) receives split-search
  /// counters: "tree.fits", "tree.split_search.nodes" (one per node whose
  /// split was searched), "tree.split_search.features" (features
  /// scanned), "tree.quantized_cache.hit"/"tree.quantized_cache.miss"
  /// (shared vs transient binning), and "tree.nodes"/"tree.leaves"
  /// (grown totals). All are deterministic functions of the fit inputs.
  void fit_gradients(const Dataset& data,
                     std::span<const std::size_t> row_indices,
                     std::span<const double> gradients,
                     std::span<const double> hessians, ceal::Rng& rng,
                     std::vector<double>* out_leaf_values = nullptr,
                     ceal::telemetry::Telemetry* telemetry = nullptr,
                     const QuantizedMatrix* quantized_cache = nullptr,
                     QuantizedWorkspace* quantized_ws = nullptr);

  /// Leaf weight for one feature vector.
  double predict(std::span<const double> features) const;

  bool is_fitted() const { return !nodes_.empty(); }
  std::size_t node_count() const { return nodes_.size(); }
  std::size_t leaf_count() const;
  std::size_t depth() const;

  /// Flattened copy of the node table (for ml::save_gbt).
  std::vector<TreeNodeData> export_nodes() const;

  /// Rebuilds a tree from a node table; validates child indices form a
  /// proper tree rooted at node 0. Throws PreconditionError otherwise.
  static RegressionTree import_nodes(const std::vector<TreeNodeData>& nodes,
                                     TreeParams params = {});

 private:
  struct Node {
    // Internal nodes: feature/threshold/children. Leaves: weight.
    std::size_t feature = 0;
    double threshold = 0.0;
    std::int32_t left = -1;  // -1 marks a leaf
    std::int32_t right = -1;
    double weight = 0.0;
  };

  struct Split {
    bool found = false;
    std::size_t feature = 0;
    double threshold = 0.0;
    double gain = 0.0;
  };

  std::int32_t build(const Dataset& data, std::vector<std::size_t>& rows,
                     std::span<const double> g, std::span<const double> h,
                     std::span<const std::size_t> feature_pool,
                     std::size_t depth, std::vector<double>* out_leaf_values,
                     ceal::telemetry::Telemetry* telemetry);
  Split best_split(const Dataset& data, std::span<const std::size_t> rows,
                   std::span<const double> g, std::span<const double> h,
                   std::span<const std::size_t> feature_pool, double g_total,
                   double h_total,
                   ceal::telemetry::Telemetry* telemetry) const;
  std::size_t depth_of(std::int32_t node) const;

  friend class QuantizedTreeBuilder;

  TreeParams params_;
  std::vector<Node> nodes_;  // nodes_[0] is the root when fitted
};

}  // namespace ceal::ml
