// CompiledForest is the only GBT predictor: fit() and from_parts() build
// one, and predict / predict_all / predict_matrix run through it. Every
// test holds it to an explicit reference — base_score plus
// learning_rate * tree.predict(x), summed over the trees in ensemble
// order — bitwise: after fit() (with and without row subsampling), after
// from_parts(), after load_gbt, and at 1 and 4 pool threads.
#include "ml/compiled_forest.h"

#include <gtest/gtest.h>

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
