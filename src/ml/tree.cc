#include "ml/tree.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>

#include "core/error.h"
#include "core/telemetry.h"
#include "ml/quantized.h"

namespace ceal::ml {

namespace {

double leaf_weight(double g_sum, double h_sum, double lambda) {
  return -g_sum / (h_sum + lambda);
}

double score(double g_sum, double h_sum, double lambda) {
  return g_sum * g_sum / (h_sum + lambda);
}

/// Gains within this epsilon of the incumbent are ties; the incumbent
/// (earlier feature / smaller threshold) wins. ml/quantized.cc uses the
/// same value so both trainers agree on tie handling.
constexpr double kGainEps = 1e-12;

/// One row of a node's exact split search: the row's value of the
/// feature being scanned.
struct SortKey {
  double v;
  std::size_t row;
};

/// splitmix64 finalizer over h + v: spreads memo keys over the index
/// buckets (lookups then compare keys exactly).
std::uint64_t hash_combine(std::uint64_t h, std::uint64_t v) {
  std::uint64_t z = h + v + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Bookkeeping a SortChainMemo charges per entry besides its arena words
/// and the Entry: an index node (hash, id, next pointer, the allocator's
/// header) and up to two bucket slots.
constexpr std::size_t kIndexNodeBytes = 6 * sizeof(void*);

}  // namespace

SortChainMemo::SortChainMemo(std::size_t budget_bytes)
    : budget_bytes_(budget_bytes) {}

std::size_t SortChainMemo::bytes_used() const {
  return arena_.size() * sizeof(std::uint32_t) +
         entries_.size() * (sizeof(Entry) + kIndexNodeBytes);
}

void SortChainMemo::bind(const Dataset& data) {
  if (data_ == nullptr) {
    data_ = &data;
    data_rows_ = data.size();
  }
  CEAL_EXPECT_MSG(data_ == &data && data_rows_ == data.size(),
                  "a SortChainMemo serves the fits of one dataset");
}

bool SortChainMemo::keyed_by_parent(const Origin& origin) const {
  return origin.parent != kNoEntry && origin.parent >= first_id_;
}

bool SortChainMemo::matches(const Entry& e, const Origin& origin,
                            std::span<const std::size_t> rows,
                            std::span<const std::size_t> feature_pool) const {
  if (e.n_rows != rows.size() || e.n_features != feature_pool.size()) {
    return false;
  }
  if (e.parent != kNoEntry) {
    return e.parent == origin.parent && e.feature == origin.feature &&
           e.threshold_bits == std::bit_cast<std::uint64_t>(origin.threshold) &&
           e.left == origin.left;
  }
  const std::uint32_t* key = arena_.data() + e.key_offset;
  for (std::size_t k = 0; k < rows.size(); ++k) {
    if (key[k] != rows[k]) return false;
  }
  key += rows.size();
  for (std::size_t f = 0; f < feature_pool.size(); ++f) {
    if (key[f] != feature_pool[f]) return false;
  }
  return true;
}

void SortChainMemo::clear() {
  first_id_ += entries_.size();
  entries_.clear();
  arena_.clear();
  index_.clear();
}

SortChainMemo::Slot SortChainMemo::acquire(
    const Origin& origin, std::span<const std::size_t> rows,
    std::span<const std::size_t> feature_pool,
    ceal::telemetry::Telemetry* telemetry) {
  bool by_parent = keyed_by_parent(origin);
  const auto key_hash = [&] {
    if (by_parent) {
      std::uint64_t h = hash_combine(origin.parent, origin.feature);
      h = hash_combine(h, std::bit_cast<std::uint64_t>(origin.threshold));
      return hash_combine(h, origin.left ? 1 : 0);
    }
    std::uint64_t h = hash_combine(rows.size(), feature_pool.size());
    for (const std::size_t r : rows) h = hash_combine(h, r);
    for (const std::size_t j : feature_pool) h = hash_combine(h, j);
    return h;
  };
  std::uint64_t hash = key_hash();
  const auto [lo, hi] = index_.equal_range(hash);
  for (auto it = lo; it != hi; ++it) {
    const Entry& e = entries_[it->second - first_id_];
    if (matches(e, origin, rows, feature_pool)) {
      if (telemetry != nullptr) telemetry->count("tree.sort_memo.hits");
      return {arena_.data() + e.orders_offset, true, it->second};
    }
  }
  if (telemetry != nullptr) telemetry->count("tree.sort_memo.misses");

  const auto entry_bytes = [&] {
    const std::size_t key_words =
        by_parent ? 0 : rows.size() + feature_pool.size();
    return (key_words + rows.size() * feature_pool.size()) *
               sizeof(std::uint32_t) +
           sizeof(Entry) + kIndexNodeBytes;
  };
  if (bytes_used() + entry_bytes() > budget_bytes_) {
    if (entry_bytes() > budget_bytes_) return {};
    clear();
    if (telemetry != nullptr) telemetry->count("tree.sort_memo.clears");
    // The clear retired the parent's entry: key the node by its rows.
    if (by_parent) {
      by_parent = false;
      hash = key_hash();
      if (entry_bytes() > budget_bytes_) return {};
    }
  }
  if (arena_.capacity() == 0) {
    arena_.reserve(budget_bytes_ / sizeof(std::uint32_t));
  }

  Entry e;
  e.n_rows = rows.size();
  e.n_features = feature_pool.size();
  if (by_parent) {
    e.parent = origin.parent;
    e.feature = origin.feature;
    e.threshold_bits = std::bit_cast<std::uint64_t>(origin.threshold);
    e.left = origin.left;
  } else {
    e.key_offset = arena_.size();
    for (const std::size_t r : rows) {
      arena_.push_back(static_cast<std::uint32_t>(r));
    }
    for (const std::size_t j : feature_pool) {
      arena_.push_back(static_cast<std::uint32_t>(j));
    }
  }
  e.orders_offset = arena_.size();
  arena_.resize(arena_.size() + rows.size() * feature_pool.size());
  const std::size_t id = first_id_ + entries_.size();
  entries_.push_back(e);
  index_.emplace(hash, id);
  return {arena_.data() + e.orders_offset, false, id};
}

FeatureQuantiles quantile_bins(std::span<const double> sorted_vals,
                               std::size_t max_bins) {
  const std::size_t n = sorted_vals.size();
  FeatureQuantiles fb;
  std::size_t distinct = n == 0 ? 0 : 1;
  for (std::size_t k = 1; k < n; ++k) {
    if (sorted_vals[k] != sorted_vals[k - 1]) ++distinct;
  }
  if (distinct <= max_bins) {
    // One bin per distinct value: the value boundaries the exact-greedy
    // search scans.
    fb.bin_max.reserve(distinct);
    for (std::size_t k = 0; k < n; ++k) {
      if (k == 0 || sorted_vals[k] != sorted_vals[k - 1]) {
        fb.bin_max.push_back(sorted_vals[k]);
      }
    }
  } else {
    // Quantile cuts: bin edges at ranks b*n/max_bins, deduplicated so
    // heavy duplicates collapse into one bin.
    fb.bin_max.reserve(max_bins);
    for (std::size_t b = 1; b < max_bins; ++b) {
      const double edge = sorted_vals[(b * n) / max_bins];
      if (fb.bin_max.empty() || edge != fb.bin_max.back()) {
        fb.bin_max.push_back(edge);
      }
    }
    if (fb.bin_max.empty() || sorted_vals.back() != fb.bin_max.back()) {
      fb.bin_max.push_back(sorted_vals.back());
    }
  }

  fb.split_value.resize(fb.bin_max.empty() ? 0 : fb.bin_max.size() - 1);
  for (std::size_t b = 0; b + 1 < fb.bin_max.size(); ++b) {
    const double lo = fb.bin_max[b];
    // Smallest training value of the next bin: the first sorted value
    // above this bin's edge.
    const double hi = *std::upper_bound(sorted_vals.begin(),
                                        sorted_vals.end(), lo);
    double mid = lo + 0.5 * (hi - lo);
    if (!(mid < hi)) mid = lo;  // rounding collapse: stay left of hi
    fb.split_value[b] = mid;
  }
  return fb;
}

RegressionTree::RegressionTree(TreeParams params) : params_(params) {
  CEAL_EXPECT(params_.max_depth >= 1);
  CEAL_EXPECT(params_.min_samples_leaf >= 1);
  CEAL_EXPECT(params_.lambda >= 0.0);
  CEAL_EXPECT(params_.gamma >= 0.0);
  CEAL_EXPECT(params_.colsample > 0.0 && params_.colsample <= 1.0);
  CEAL_EXPECT(params_.max_bins >= 2 && params_.max_bins <= kMaxBins);
}

void RegressionTree::fit_gradients(const Dataset& data,
                                   std::span<const std::size_t> row_indices,
                                   std::span<const double> gradients,
                                   std::span<const double> hessians,
                                   ceal::Rng& rng,
                                   std::vector<double>* out_leaf_values,
                                   ceal::telemetry::Telemetry* telemetry,
                                   const QuantizedMatrix* quantized_cache,
                                   QuantizedWorkspace* quantized_ws,
                                   SortChainMemo* sort_memo) {
  CEAL_EXPECT(!row_indices.empty());
  CEAL_EXPECT(gradients.size() == data.size());
  CEAL_EXPECT(hessians.size() == data.size());
  CEAL_EXPECT(out_leaf_values == nullptr ||
              out_leaf_values->size() == data.size());
  nodes_.clear();

  // Column subsampling: one feature pool per tree.
  const std::size_t d = data.n_features();
  std::size_t keep = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(params_.colsample *
                                               static_cast<double>(d))));
  keep = std::min(keep, d);
  std::vector<std::size_t> feature_pool;
  if (keep == d) {
    feature_pool.resize(d);
    for (std::size_t j = 0; j < d; ++j) feature_pool[j] = j;
  } else {
    feature_pool = rng.sample_without_replacement(d, keep);
  }

  if (telemetry != nullptr) telemetry->count("tree.fits");
  if (params_.method == TreeMethod::kQuantized) {
    CEAL_EXPECT(quantized_cache == nullptr ||
                (quantized_cache->n_rows() == data.size() &&
                 quantized_cache->n_features() == data.n_features()));
    if (telemetry != nullptr) {
      telemetry->count(quantized_cache != nullptr
                           ? "tree.quantized_cache.hit"
                           : "tree.quantized_cache.miss");
    }
    std::optional<QuantizedMatrix> local;
    if (quantized_cache == nullptr) {
      local.emplace(data, params_.max_bins);
      quantized_cache = &*local;
    }
    QuantizedTreeBuilder builder(*this, row_indices, gradients, hessians,
                                 std::move(feature_pool), *quantized_cache,
                                 telemetry, quantized_ws);
    builder.run(out_leaf_values);
  } else {
    // The one bounds check of the exact path: split search and partition
    // read the row-major buffer directly.
    for (const std::size_t r : row_indices) CEAL_EXPECT(r < data.size());
    // The memo stores row ids as uint32.
    if (data.size() > std::numeric_limits<std::uint32_t>::max()) {
      sort_memo = nullptr;
    }
    if (sort_memo != nullptr) sort_memo->bind(data);
    std::vector<std::size_t> rows(row_indices.begin(), row_indices.end());
    build(data, rows, gradients, hessians, feature_pool, 0, out_leaf_values,
          telemetry, sort_memo, SortChainMemo::Origin{});
  }
  CEAL_ENSURE(!nodes_.empty());
  if (telemetry != nullptr) {
    telemetry->count("tree.nodes", nodes_.size());
    telemetry->count("tree.leaves", leaf_count());
  }
}

std::int32_t RegressionTree::build(const Dataset& data,
                                   std::vector<std::size_t>& rows,
                                   std::span<const double> g,
                                   std::span<const double> h,
                                   std::span<const std::size_t> feature_pool,
                                   std::size_t depth,
                                   std::vector<double>* out_leaf_values,
                                   ceal::telemetry::Telemetry* telemetry,
                                   SortChainMemo* memo,
                                   const SortChainMemo::Origin& origin) {
  double g_sum = 0.0, h_sum = 0.0;
  for (const std::size_t r : rows) {
    g_sum += g[r];
    h_sum += h[r];
  }

  const auto make_leaf = [&]() -> std::int32_t {
    Node leaf;
    leaf.weight = leaf_weight(g_sum, h_sum, params_.lambda);
    nodes_.push_back(leaf);
    if (out_leaf_values != nullptr) {
      for (const std::size_t r : rows) (*out_leaf_values)[r] = leaf.weight;
    }
    return static_cast<std::int32_t>(nodes_.size() - 1);
  };

  if (depth >= params_.max_depth ||
      rows.size() < 2 * params_.min_samples_leaf) {
    return make_leaf();
  }

  std::size_t memo_id = SortChainMemo::kNoEntry;
  const Split split = best_split(data, rows, g, h, feature_pool, g_sum, h_sum,
                                 telemetry, memo, origin, &memo_id);
  if (!split.found) return make_leaf();

  // Partition rows in place. fit_gradients checked every row index.
  const double* const column = data.values().data() + split.feature;
  const std::size_t d = data.n_features();
  std::vector<std::size_t> left_rows, right_rows;
  left_rows.reserve(rows.size());
  right_rows.reserve(rows.size());
  for (const std::size_t r : rows) {
    if (column[r * d] <= split.threshold) {
      left_rows.push_back(r);
    } else {
      right_rows.push_back(r);
    }
  }
  CEAL_ENSURE(!left_rows.empty() && !right_rows.empty());
  rows.clear();
  rows.shrink_to_fit();

  // Reserve this node's slot before children are appended.
  nodes_.emplace_back();
  const auto self = static_cast<std::int32_t>(nodes_.size() - 1);
  const std::int32_t left =
      build(data, left_rows, g, h, feature_pool, depth + 1, out_leaf_values,
            telemetry, memo, {memo_id, split.feature, split.threshold, true});
  const std::int32_t right =
      build(data, right_rows, g, h, feature_pool, depth + 1, out_leaf_values,
            telemetry, memo, {memo_id, split.feature, split.threshold, false});
  nodes_[static_cast<std::size_t>(self)].feature = split.feature;
  nodes_[static_cast<std::size_t>(self)].threshold = split.threshold;
  nodes_[static_cast<std::size_t>(self)].left = left;
  nodes_[static_cast<std::size_t>(self)].right = right;
  return self;
}

RegressionTree::Split RegressionTree::best_split(
    const Dataset& data, std::span<const std::size_t> rows,
    std::span<const double> g, std::span<const double> h,
    std::span<const std::size_t> feature_pool, double g_total,
    double h_total, ceal::telemetry::Telemetry* telemetry,
    SortChainMemo* memo, const SortChainMemo::Origin& origin,
    std::size_t* memo_id) const {
  const double parent_score = score(g_total, h_total, params_.lambda);
  if (telemetry != nullptr) {
    telemetry->count("tree.split_search.nodes");
    telemetry->count("tree.split_search.features", feature_pool.size());
  }

  // One contiguous {value, row} array carried across the features:
  // feature j's sort starts from feature j-1's order. std::sort's moves
  // depend only on the comparison outcomes, so this chain fixes the order
  // of tied rows, the g_left summation order below and so every gain bit
  // (the tie-order invariant, see TreeMethod::kExact). A memo hit
  // replays the orders the same chain left on this exact input.
  const SortChainMemo::Slot slot =
      memo != nullptr ? memo->acquire(origin, rows, feature_pool, telemetry)
                      : SortChainMemo::Slot{};
  *memo_id = slot.id;
  const double* const x = data.values().data();
  const std::size_t d = data.n_features();
  const std::size_t n = rows.size();
  std::vector<SortKey> keys(n);
  if (!slot.hit) {
    for (std::size_t k = 0; k < n; ++k) keys[k].row = rows[k];
  }

  Split best;
  for (std::size_t f = 0; f < feature_pool.size(); ++f) {
    const std::size_t j = feature_pool[f];
    std::uint32_t* const order =
        slot.orders != nullptr ? slot.orders + f * n : nullptr;
    if (slot.hit) {
      for (std::size_t k = 0; k < n; ++k) {
        keys[k] = {x[order[k] * d + j], order[k]};
      }
    } else {
      for (SortKey& key : keys) key.v = x[key.row * d + j];
      std::sort(keys.begin(), keys.end(),
                [](const SortKey& a, const SortKey& b) { return a.v < b.v; });
      if (order != nullptr) {
        for (std::size_t k = 0; k < n; ++k) {
          order[k] = static_cast<std::uint32_t>(keys[k].row);
        }
      }
    }
    double g_left = 0.0, h_left = 0.0;
    for (std::size_t k = 0; k + 1 < keys.size(); ++k) {
      const std::size_t r = keys[k].row;
      g_left += g[r];
      h_left += h[r];
      const double v = keys[k].v;
      const double v_next = keys[k + 1].v;
      if (v == v_next) continue;  // cannot split between equal values
      const std::size_t n_left = k + 1;
      const std::size_t n_right = keys.size() - n_left;
      if (n_left < params_.min_samples_leaf ||
          n_right < params_.min_samples_leaf) {
        continue;
      }
      const double h_right = h_total - h_left;
      if (h_left < params_.min_child_weight ||
          h_right < params_.min_child_weight) {
        continue;
      }
      const double g_right = g_total - g_left;
      const double gain = 0.5 * (score(g_left, h_left, params_.lambda) +
                                 score(g_right, h_right, params_.lambda) -
                                 parent_score) -
                          params_.gamma;
      if (gain > best.gain + kGainEps || (!best.found && gain > 0.0)) {
        best.found = true;
        best.feature = j;
        best.threshold = 0.5 * (v + v_next);
        best.gain = gain;
      }
    }
  }
  return best;
}

double RegressionTree::predict(std::span<const double> features) const {
  CEAL_EXPECT_MSG(is_fitted(), "predict() before fit()");
  std::size_t node = 0;
  // The root is nodes_[0] only when the tree has an internal root; when the
  // whole tree is a single leaf, nodes_ has exactly one element.
  for (;;) {
    const Node& n = nodes_[node];
    if (n.left < 0) return n.weight;
    CEAL_EXPECT(n.feature < features.size());
    node = static_cast<std::size_t>(
        features[n.feature] <= n.threshold ? n.left : n.right);
  }
}

std::size_t RegressionTree::leaf_count() const {
  std::size_t leaves = 0;
  for (const Node& n : nodes_)
    if (n.left < 0) ++leaves;
  return leaves;
}

std::size_t RegressionTree::depth_of(std::int32_t node) const {
  const Node& n = nodes_[static_cast<std::size_t>(node)];
  if (n.left < 0) return 1;
  return 1 + std::max(depth_of(n.left), depth_of(n.right));
}

std::size_t RegressionTree::depth() const {
  CEAL_EXPECT(is_fitted());
  return depth_of(0);
}

std::vector<TreeNodeData> RegressionTree::export_nodes() const {
  CEAL_EXPECT(is_fitted());
  std::vector<TreeNodeData> out;
  out.reserve(nodes_.size());
  for (const Node& n : nodes_) {
    out.push_back(TreeNodeData{n.feature, n.threshold, n.left, n.right,
                               n.weight});
  }
  return out;
}

RegressionTree RegressionTree::import_nodes(
    const std::vector<TreeNodeData>& nodes, TreeParams params) {
  CEAL_EXPECT_MSG(!nodes.empty(), "tree needs at least one node");
  const auto n = static_cast<std::int32_t>(nodes.size());
  std::vector<int> referenced(nodes.size(), 0);
  for (const TreeNodeData& d : nodes) {
    const bool leaf = d.left < 0;
    CEAL_EXPECT_MSG(leaf == (d.right < 0),
                    "node must have both children or neither");
    if (!leaf) {
      CEAL_EXPECT_MSG(d.left < n && d.right < n && d.left != d.right,
                      "child index out of range");
      ++referenced[static_cast<std::size_t>(d.left)];
      ++referenced[static_cast<std::size_t>(d.right)];
    }
  }
  CEAL_EXPECT_MSG(referenced[0] == 0, "node 0 must be the root");
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    CEAL_EXPECT_MSG(referenced[i] == 1,
                    "every non-root node needs exactly one parent");
  }

  RegressionTree tree(params);
  tree.nodes_.reserve(nodes.size());
  for (const TreeNodeData& d : nodes) {
    Node node;
    node.feature = d.feature;
    node.threshold = d.threshold;
    node.left = d.left;
    node.right = d.right;
    node.weight = d.weight;
    tree.nodes_.push_back(node);
  }
  return tree;
}

}  // namespace ceal::ml
