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
#include <unordered_map>
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
///     Tie-order invariant: a node sorts one {value, row} array with
///     std::sort, feature after feature, and feature j's sort input is
///     feature j-1's output. std::sort is not stable, so the order of
///     rows with equal values depends on that whole chain, and it fixes
///     the order in which the scan sums g_left — hence every gain bit,
///     on which near-tied splits turn. Changing the sort or its input
///     changes trees: std::stable_sort, presorted columns, or a
///     reordered row list. Do that only as a deliberate re-pin of the
///     golden test (tests/ml/test_gbt.cc, GbtExactGolden) and the
///     reproduced results. Replaying the recorded output of an
///     identical input (SortChainMemo) does not change them.
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

/// Byte budget of a SortChainMemo: a 500-row, 7-feature root entry
/// takes ~16 KiB, so this holds the upper levels of several trees.
/// Concurrent fits each hold one memo, so the budget is also the memo's
/// share of peak RSS per worker.
inline constexpr std::size_t kSortChainMemoBudgetBytes = 256 * 1024;

/// Per-fit memo of the exact trainer's sort chains (TreeMethod::kExact).
/// A node's chain output, the row order each feature's sort leaves, is a
/// pure function of the node's row sequence, its feature pool and the
/// data. Within one ensemble fit the data is fixed, so a node whose
/// exact input recurs replays the recorded orders instead of sorting:
/// every round's root when all rows train under one feature pool, and
/// below it every child reached by a split seen before. The replayed
/// {value, row} keys equal the sorted ones element for element, so the
/// trees are bit-identical with and without a memo.
///
/// Keys are exact, a hash only picks the bucket. A root (or a node whose
/// parent entry was not recorded or has been cleared) is keyed by its
/// full row sequence plus feature pool; any other node by its parent's
/// entry plus (split feature, threshold bits, side), which fixes its row
/// list. Row ids live in one contiguous uint32 arena, so fits on more
/// than 2^32 rows run without the memo. When recording an entry would
/// exceed the byte budget the memo clears and refills; an entry larger
/// than the whole budget is not recorded.
///
/// One memo serves the trees of one fit on one dataset (bound on first
/// use), from one thread at a time. GradientBoostedTrees::fit creates
/// one per kExact fit; RandomForest passes none, since its bootstrap
/// row lists never repeat.
class SortChainMemo {
 public:
  explicit SortChainMemo(
      std::size_t budget_bytes = kSortChainMemoBudgetBytes);

  std::size_t budget_bytes() const { return budget_bytes_; }
  /// Arena plus per-entry bookkeeping; never above budget_bytes().
  std::size_t bytes_used() const;

 private:
  friend class RegressionTree;

  static constexpr std::size_t kNoEntry = static_cast<std::size_t>(-1);

  /// How the split search reached a node: the parent's entry id
  /// (kNoEntry at the root) and the split whose `left` side it is.
  struct Origin {
    std::size_t parent = kNoEntry;
    std::size_t feature = 0;
    double threshold = 0.0;
    bool left = false;
  };

  /// A node's entry: on a hit its recorded orders, on a miss the slot
  /// to record them in (nullptr when the entry exceeds the budget).
  /// Orders are feature_pool.size() blocks of rows.size() row ids.
  struct Slot {
    std::uint32_t* orders = nullptr;
    bool hit = false;
    std::size_t id = kNoEntry;
  };

  struct Entry {
    std::size_t parent = kNoEntry;  // kNoEntry: keyed by rows + pool
    std::size_t feature = 0;
    std::uint64_t threshold_bits = 0;
    bool left = false;
    std::size_t key_offset = 0;  // rows then pool, when keyed by rows
    std::size_t orders_offset = 0;
    std::size_t n_rows = 0;
    std::size_t n_features = 0;
  };

  /// Binds the memo to the fit's dataset on first use; later calls
  /// must pass the same one.
  void bind(const Dataset& data);
  Slot acquire(const Origin& origin, std::span<const std::size_t> rows,
               std::span<const std::size_t> feature_pool,
               ceal::telemetry::Telemetry* telemetry);
  bool keyed_by_parent(const Origin& origin) const;
  bool matches(const Entry& e, const Origin& origin,
               std::span<const std::size_t> rows,
               std::span<const std::size_t> feature_pool) const;
  void clear();

  std::size_t budget_bytes_;
  const Dataset* data_ = nullptr;
  std::size_t data_rows_ = 0;
  std::vector<std::uint32_t> arena_;
  std::vector<Entry> entries_;  // entries_[k] has id first_id_ + k
  std::size_t first_id_ = 0;    // ids never repeat across clears
  std::unordered_multimap<std::uint64_t, std::size_t> index_;  // hash -> id
};

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
  /// `sort_memo` (kExact only) replays the sort chains of nodes whose
  /// exact input an earlier tree of the same fit already sorted (see
  /// SortChainMemo); the grown tree is the same with or without it.
  ///
  /// `telemetry` (optional, concurrency-safe) receives split-search
  /// counters: "tree.fits", "tree.split_search.nodes" (one per node whose
  /// split was searched), "tree.split_search.features" (features
  /// scanned), "tree.quantized_cache.hit"/"tree.quantized_cache.miss"
  /// (shared vs transient binning), "tree.sort_memo.hits"/
  /// "tree.sort_memo.misses" (searched nodes replayed vs sorted, with a
  /// memo) and "tree.sort_memo.clears", and "tree.nodes"/"tree.leaves"
  /// (grown totals). All are deterministic functions of the fit inputs.
  void fit_gradients(const Dataset& data,
                     std::span<const std::size_t> row_indices,
                     std::span<const double> gradients,
                     std::span<const double> hessians, ceal::Rng& rng,
                     std::vector<double>* out_leaf_values = nullptr,
                     ceal::telemetry::Telemetry* telemetry = nullptr,
                     const QuantizedMatrix* quantized_cache = nullptr,
                     QuantizedWorkspace* quantized_ws = nullptr,
                     SortChainMemo* sort_memo = nullptr);

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
                     ceal::telemetry::Telemetry* telemetry,
                     SortChainMemo* memo, const SortChainMemo::Origin& origin);
  /// Sets *memo_id to the node's memo entry (kNoEntry if unrecorded).
  Split best_split(const Dataset& data, std::span<const std::size_t> rows,
                   std::span<const double> g, std::span<const double> h,
                   std::span<const std::size_t> feature_pool, double g_total,
                   double h_total, ceal::telemetry::Telemetry* telemetry,
                   SortChainMemo* memo, const SortChainMemo::Origin& origin,
                   std::size_t* memo_id) const;
  std::size_t depth_of(std::int32_t node) const;

  friend class QuantizedTreeBuilder;

  TreeParams params_;
  std::vector<Node> nodes_;  // nodes_[0] is the root when fitted
};

}  // namespace ceal::ml
