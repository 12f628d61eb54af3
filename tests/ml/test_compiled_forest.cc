// CompiledForest is the only GBT predictor: fit() and from_parts() build
// one, and predict / predict_all / predict_matrix run through it. Every
// test holds it to an explicit reference — base_score plus
// learning_rate * tree.predict(x), summed over the trees in ensemble
// order — bitwise: after fit() (with and without row subsampling), after
// from_parts(), after load_gbt, and at 1 and 4 pool threads. A
// hand-built mixed-depth forest covers what fitted models rarely reach:
// single-leaf trees, stumps, a 300-deep chain, NaN and infinite
// features, threshold ties, and batches on both sides of the 64-row
// block boundary.
#include "ml/compiled_forest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <sstream>
#include <vector>

#include "core/error.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/telemetry.h"
#include "ml/gbt.h"
#include "ml/serialize.h"

namespace ceal::ml {
namespace {

Dataset grid_like(std::size_t n, ceal::Rng& rng) {
  Dataset d(4);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = static_cast<double>(rng.uniform_int(1, 32));
    const double b = static_cast<double>(rng.uniform_int(0, 7));
    const double c = rng.uniform(0.0, 10.0);
    const double e = rng.uniform(-1.0, 1.0);
    d.add(std::vector<double>{a, b, c, e},
          100.0 / a + 5.0 * b + c * c + rng.normal(0.0, 0.3));
  }
  return d;
}

FeatureMatrix matrix_of(const Dataset& d) {
  FeatureMatrix m(d.n_features(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) m.set_row(i, d.row(i));
  return m;
}

/// `d`'s rows at columns [before, before + d.n_features()) of a wider
/// matrix whose other columns hold values that would reroute any split
/// that read them (NaN, huge, negative).
FeatureMatrix windowed_matrix_of(const Dataset& d, std::size_t before,
                                 std::size_t after) {
  constexpr double kJunk[] = {std::numeric_limits<double>::quiet_NaN(),
                              1e300, -1e300};
  FeatureMatrix m(before + d.n_features() + after, d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    const auto row = m.mutable_row(i);
    for (std::size_t k = 0; k < row.size(); ++k) row[k] = kJunk[k % 3];
    std::copy(d.row(i).begin(), d.row(i).end(), row.begin() + before);
  }
  return m;
}

/// The tree-walk reference every prediction must equal bitwise.
double reference(const GradientBoostedTrees& model,
                 std::span<const double> x) {
  double out = model.base_score();
  for (const auto& tree : model.trees()) {
    out += model.params().learning_rate * tree.predict(x);
  }
  return out;
}

/// Single-row, dataset-batch, and matrix-batch predictions of `model`
/// all equal the reference on every row of `pool`.
void expect_matches_reference(const GradientBoostedTrees& model,
                              const Dataset& pool) {
  ASSERT_NE(model.compiled(), nullptr);
  const auto all = model.predict_all(pool);
  const auto matrix = model.predict_matrix(matrix_of(pool));
  ASSERT_EQ(all.size(), pool.size());
  ASSERT_EQ(matrix.size(), pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const double ref = reference(model, pool.row(i));
    ASSERT_EQ(model.predict(pool.row(i)), ref) << "row " << i;
    ASSERT_EQ(all[i], ref) << "row " << i;
    ASSERT_EQ(matrix[i], ref) << "row " << i;
  }
}

TEST(CompiledForest, BitwiseEqualToTreeWalk) {
  ceal::Rng rng(31);
  const Dataset train = grid_like(200, rng);
  const Dataset pool = grid_like(400, rng);

  GradientBoostedTrees model(GradientBoostedTrees::surrogate_defaults());
  ceal::Rng fit_rng(8);
  model.fit(train, fit_rng);
  expect_matches_reference(model, pool);

  const CompiledForest forest = CompiledForest::compile(model);
  EXPECT_EQ(forest.tree_count(), model.tree_count());
  EXPECT_GT(forest.node_count(), forest.tree_count());
  const auto flat = forest.predict_dataset(pool);
  const auto batched = forest.predict_matrix(matrix_of(pool));
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const double ref = reference(model, pool.row(i));
    ASSERT_EQ(forest.predict(pool.row(i)), ref) << "row " << i;
    ASSERT_EQ(flat[i], ref) << "row " << i;
    ASSERT_EQ(batched[i], ref) << "row " << i;
  }
}

TEST(CompiledForest, FitPathCompilesAndRoutesPredictions) {
  ceal::Rng rng(5);
  const Dataset train = grid_like(150, rng);
  const Dataset pool = grid_like(300, rng);

  for (const TreeMethod method :
       {TreeMethod::kExact, TreeMethod::kQuantized}) {
    for (const double subsample : {1.0, 0.7}) {
      SCOPED_TRACE(::testing::Message()
                   << (method == TreeMethod::kExact ? "exact" : "quantized")
                   << " subsample " << subsample);
      GbtParams p = GradientBoostedTrees::surrogate_defaults();
      p.tree.method = method;
      p.subsample = subsample;
      GradientBoostedTrees model(p);
      ceal::Rng fit_rng(3);
      model.fit(train, fit_rng);
      expect_matches_reference(model, pool);
    }
  }

  // Batch inference reports under the gbt.predict names only: the
  // compiled forest adds no telemetry of its own.
  GradientBoostedTrees model(GradientBoostedTrees::surrogate_defaults());
  ceal::Rng fit_rng(4);
  model.fit(train, fit_rng);
  telemetry::Telemetry tel;
  model.set_telemetry(&tel);
  (void)model.predict_matrix(matrix_of(pool));
  EXPECT_EQ(tel.counter("gbt.predict.rows"), pool.size());
  EXPECT_EQ(tel.counter("gbt.predict.batches"), 1u);
  EXPECT_EQ(tel.counter("compiled.predict.rows"), 0u);
}

TEST(CompiledForest, ThreadCountDeterminism) {
  ceal::Rng rng(77);
  const Dataset train = grid_like(150, rng);
  const Dataset pool = grid_like(2000, rng);  // large enough to fan out

  GradientBoostedTrees model(GradientBoostedTrees::surrogate_defaults());
  ceal::Rng fit_rng(6);
  model.fit(train, fit_rng);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    ceal::set_global_thread_pool_threads(threads);
    expect_matches_reference(model, pool);
  }
  ceal::set_global_thread_pool_threads(0);
}

TEST(CompiledForest, FromPartsAndLoadMatchReference) {
  ceal::Rng rng(13);
  const Dataset train = grid_like(120, rng);
  const Dataset pool = grid_like(200, rng);
  GbtParams p = GradientBoostedTrees::surrogate_defaults();
  p.tree.method = TreeMethod::kQuantized;
  GradientBoostedTrees model(p);
  ceal::Rng fit_rng(2);
  model.fit(train, fit_rng);

  const GradientBoostedTrees rebuilt = GradientBoostedTrees::from_parts(
      model.params(), model.base_score(), model.trees());
  expect_matches_reference(rebuilt, pool);

  std::stringstream ss;
  save_gbt(model, ss, train.n_features());
  EXPECT_NE(ss.str().find("gbt v2"), std::string::npos);
  EXPECT_NE(ss.str().find("params quantized 256 1\n"), std::string::npos);

  const LoadedGbt loaded = load_gbt(ss);
  EXPECT_EQ(loaded.n_features, train.n_features());
  EXPECT_EQ(loaded.model.params().tree.method, TreeMethod::kQuantized);
  expect_matches_reference(loaded.model, pool);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    ASSERT_EQ(model.predict(pool.row(i)), loaded.model.predict(pool.row(i)));
  }
}

constexpr std::size_t kMixedWidth = 5;

/// Random tree over kMixedWidth features, at most `max_depth` edges deep.
/// Thresholds sit on the integer grid the rows below draw from, so ties
/// (x == threshold, which go left) are common.
RegressionTree random_tree(std::size_t max_depth, ceal::Rng& rng) {
  std::vector<TreeNodeData> nodes;
  struct Open {
    std::size_t node;
    std::size_t depth;
  };
  std::vector<Open> open{{0, 0}};
  nodes.push_back({});
  while (!open.empty()) {
    const Open o = open.back();
    open.pop_back();
    if (o.depth == max_depth || (o.depth > 0 && rng.uniform01() < 0.25)) {
      nodes[o.node].weight = rng.normal(0.0, 10.0);
      continue;
    }
    const auto left = static_cast<std::int32_t>(nodes.size());
    nodes[o.node].feature = rng.uniform_u64(kMixedWidth);
    nodes[o.node].threshold = static_cast<double>(rng.uniform_int(-3, 3));
    nodes[o.node].left = left;
    nodes[o.node].right = left + 1;
    nodes.resize(nodes.size() + 2);
    open.push_back({static_cast<std::size_t>(left), o.depth + 1});
    open.push_back({static_cast<std::size_t>(left) + 1, o.depth + 1});
  }
  return RegressionTree::import_nodes(nodes);
}

/// A `length`-split chain. Split k reads feature k % 2 and continues on
/// alternating sides: left past x <= length - k on even k, right past
/// x > -(length - k) on odd k, leaving through a leaf on the other side.
/// The all-zero row walks the whole chain; NaN continues only at odd
/// splits (NaN goes right).
RegressionTree chain_tree(std::size_t length, ceal::Rng& rng) {
  std::vector<TreeNodeData> nodes(2 * length + 1);
  for (std::size_t k = 0; k < length; ++k) {
    const auto exit = static_cast<std::int32_t>(2 * k + 1);
    const auto next = static_cast<std::int32_t>(2 * k + 2);
    const double bound = static_cast<double>(length - k);
    TreeNodeData& split = nodes[2 * k];
    split.feature = k % 2;
    split.threshold = k % 2 == 0 ? bound : -bound;
    split.left = k % 2 == 0 ? next : exit;
    split.right = k % 2 == 0 ? exit : next;
    nodes[static_cast<std::size_t>(exit)].weight = rng.normal(0.0, 10.0);
  }
  nodes.back().weight = rng.normal(0.0, 10.0);
  return RegressionTree::import_nodes(nodes);
}

/// 140 trees in ensemble order: single leaves, stumps, random trees of
/// depth 1-7, and one 300-deep chain in the middle. 140 trees x 130 rows
/// crosses kParallelPredictWork, so the 4-thread runs fan out.
GradientBoostedTrees mixed_depth_forest() {
  ceal::Rng rng(2024);
  std::vector<RegressionTree> trees;
  for (std::size_t t = 0; t < 140; ++t) {
    if (t == 70) {
      trees.push_back(chain_tree(300, rng));
    } else if (t % 9 == 0) {
      trees.push_back(
          RegressionTree::import_nodes({{0, 0.0, -1, -1, rng.normal()}}));
    } else if (t % 9 == 1) {
      trees.push_back(random_tree(1, rng));
    } else {
      trees.push_back(random_tree(1 + t % 7, rng));
    }
  }
  GbtParams p = GradientBoostedTrees::surrogate_defaults();
  p.learning_rate = 0.3;
  return GradientBoostedTrees::from_parts(p, -1.25, std::move(trees));
}

/// 130 rows of kMixedWidth features: integers on the threshold grid,
/// continuous values, NaN and +-inf, plus the all-zero row that walks the
/// whole chain and rows made entirely of one special value.
Dataset mixed_rows() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(), kInf,
                             -kInf};
  ceal::Rng rng(99);
  Dataset rows(kMixedWidth);
  rows.add(std::vector<double>(kMixedWidth, 0.0), 0.0);
  for (const double s : specials) {
    rows.add(std::vector<double>(kMixedWidth, s), 0.0);
  }
  std::vector<double> x(kMixedWidth);
  while (rows.size() < 130) {
    for (double& v : x) {
      const double u = rng.uniform01();
      if (u < 0.15) {
        v = specials[rng.uniform_u64(3)];
      } else if (u < 0.6) {
        v = static_cast<double>(rng.uniform_int(-4, 4));
      } else {
        v = rng.uniform(-400.0, 400.0);
      }
    }
    rows.add(x, 0.0);
  }
  return rows;
}

TEST(CompiledForest, MixedDepthForestMatchesReferenceOnEveryBatchSize) {
  const GradientBoostedTrees model = mixed_depth_forest();
  const CompiledForest& forest = *model.compiled();
  ASSERT_EQ(forest.tree_count(), 140u);
  const Dataset all_rows = mixed_rows();

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ceal::set_global_thread_pool_threads(threads);
    for (const std::size_t n : {0, 1, 63, 64, 65, 130}) {
      SCOPED_TRACE(::testing::Message() << threads << " threads, " << n
                                        << " rows");
      Dataset rows(kMixedWidth);
      for (std::size_t i = 0; i < n; ++i) rows.add(all_rows.row(i), 0.0);
      const auto by_dataset = forest.predict_dataset(rows);
      const auto by_matrix = forest.predict_matrix(matrix_of(rows));
      // The same rows as a column window of a wider matrix.
      const auto by_window =
          forest.predict_matrix(windowed_matrix_of(rows, 3, 2), 3);
      ASSERT_EQ(by_dataset.size(), n);
      ASSERT_EQ(by_matrix.size(), n);
      ASSERT_EQ(by_window.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        const double ref = reference(model, rows.row(i));
        // Bitwise, NaN-safe: every reference here is finite.
        ASSERT_EQ(forest.predict(rows.row(i)), ref) << "row " << i;
        ASSERT_EQ(by_dataset[i], ref) << "row " << i;
        ASSERT_EQ(by_matrix[i], ref) << "row " << i;
        ASSERT_EQ(by_window[i], ref) << "row " << i;
      }
    }
  }
  ceal::set_global_thread_pool_threads(0);
}

TEST(CompiledForest, ChainDepthAndSpecialValuesRouteLikeTheTree) {
  // One chain alone: each row's prediction is exactly one leaf, so a
  // mis-routed NaN, infinity or tie shows as a different leaf weight.
  ceal::Rng rng(5);
  const RegressionTree chain = chain_tree(300, rng);
  const GradientBoostedTrees model = GradientBoostedTrees::from_parts(
      GradientBoostedTrees::surrogate_defaults(), 0.0, {chain});
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<double>> rows = {
      {0.0, 0.0},     // the whole chain
      {300.0, 0.0},   // tie at the root goes left; out at split 2
      {kNaN, 0.0},    // NaN goes right: out at the root
      {0.0, kNaN},    // right at every odd split: the whole chain
      {-kInf, kInf},  // the whole chain
      {kInf, 0.0},    // out at the root
      {0.0, -kInf},   // out at the first odd split
      {150.0, -150.0}};
  Dataset data(2);
  for (const auto& r : rows) data.add(r, 0.0);
  const auto batch = model.compiled()->predict_dataset(data);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double ref = reference(model, rows[i]);
    ASSERT_EQ(model.predict(rows[i]), ref) << "row " << i;
    ASSERT_EQ(batch[i], ref) << "row " << i;
  }
  // The rows above leave the chain at distinct depths.
  EXPECT_EQ(reference(model, rows[0]), reference(model, rows[3]));
  EXPECT_NE(reference(model, rows[0]), reference(model, rows[2]));
  EXPECT_NE(reference(model, rows[2]), reference(model, rows[6]));
  EXPECT_NE(reference(model, rows[0]), reference(model, rows[7]));
}

TEST(CompiledForest, DefaultModelsStillSerializeAsV1) {
  ceal::Rng rng(14);
  const Dataset train = grid_like(60, rng);
  GradientBoostedTrees model(GradientBoostedTrees::surrogate_defaults());
  ceal::Rng fit_rng(1);
  model.fit(train, fit_rng);
  ASSERT_NE(model.compiled(), nullptr);  // compiled, yet still v1
  std::stringstream ss;
  save_gbt(model, ss, train.n_features());
  EXPECT_NE(ss.str().find("gbt v1"), std::string::npos);
  EXPECT_EQ(ss.str().find("params "), std::string::npos);
}

TEST(CompiledForest, RowsNarrowerThanLargestSplitFeatureAreRejected) {
  // Root splits on feature 0; only its right subtree reads feature 3.
  const RegressionTree tree = RegressionTree::import_nodes({
      {0, 0.5, 1, 2, 0.0},
      {0, 0.0, -1, -1, 1.0},
      {3, 0.0, 3, 4, 0.0},
      {0, 0.0, -1, -1, 2.0},
      {0, 0.0, -1, -1, 3.0},
  });
  const GradientBoostedTrees model = GradientBoostedTrees::from_parts(
      GradientBoostedTrees::surrogate_defaults(), 0.0, {tree});
  const CompiledForest& forest = *model.compiled();

  const std::vector<double> wide{0.0, 0.0, 0.0, 0.0};
  EXPECT_EQ(forest.predict(wide), reference(model, wide));

  // {0, 0} goes left at the root and never reaches the feature-3 split,
  // yet the width check covers every split of the forest.
  const std::vector<double> narrow{0.0, 0.0};
  EXPECT_THROW(forest.predict(narrow), ceal::PreconditionError);
  EXPECT_THROW(model.predict(narrow), ceal::PreconditionError);

  Dataset narrow_data(2);
  narrow_data.add(narrow, 0.0);
  EXPECT_THROW(forest.predict_dataset(narrow_data), ceal::PreconditionError);
  EXPECT_THROW(model.predict_all(narrow_data), ceal::PreconditionError);
  const FeatureMatrix narrow_matrix = matrix_of(narrow_data);
  EXPECT_THROW(forest.predict_matrix(narrow_matrix), ceal::PreconditionError);
  EXPECT_THROW(model.predict_matrix(narrow_matrix), ceal::PreconditionError);

  // A column window must hold the largest split feature too: four
  // columns from column 1 need a width of 5.
  Dataset wide_data(4);
  wide_data.add(wide, 0.0);
  const FeatureMatrix shifted = windowed_matrix_of(wide_data, 1, 0);
  EXPECT_EQ(forest.predict_matrix(shifted, 1)[0], reference(model, wide));
  const FeatureMatrix wide_matrix = matrix_of(wide_data);
  EXPECT_THROW(forest.predict_matrix(wide_matrix, 1), ceal::PreconditionError);
  EXPECT_THROW(model.predict_matrix(wide_matrix, 1), ceal::PreconditionError);

  // A batch without rows has nothing to check.
  EXPECT_TRUE(forest.predict_dataset(Dataset(2)).empty());
  EXPECT_TRUE(forest.predict_matrix(FeatureMatrix(2, 0)).empty());
}

TEST(CompiledForest, SingleLeafForestAcceptsAnyWidth) {
  const RegressionTree leaf =
      RegressionTree::import_nodes({{0, 0.0, -1, -1, 4.0}});
  const GradientBoostedTrees model = GradientBoostedTrees::from_parts(
      GradientBoostedTrees::surrogate_defaults(), 1.0, {leaf});
  EXPECT_EQ(model.predict(std::vector<double>{}), 1.0 + 0.1 * 4.0);
}

}  // namespace
}  // namespace ceal::ml
