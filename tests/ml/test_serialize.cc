#include "ml/serialize.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/error.h"
#include "core/rng.h"

namespace ceal::ml {
namespace {

Dataset training_data(std::size_t n, ceal::Rng& rng) {
  Dataset d(3);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform(0.0, 10.0);
    const double b = rng.uniform(-5.0, 5.0);
    const double c = rng.uniform01();
    d.add(std::vector<double>{a, b, c}, 2.0 * a - b + 10.0 * c + 1.0);
  }
  return d;
}

TEST(Serialize, RoundTripPreservesEveryPrediction) {
  ceal::Rng rng(1);
  const Dataset train = training_data(120, rng);
  GradientBoostedTrees model(GradientBoostedTrees::surrogate_defaults());
  model.fit(train, rng);

  std::stringstream buffer;
  save_gbt(model, buffer, 3);
  const LoadedGbt loaded = load_gbt(buffer);

  EXPECT_EQ(loaded.n_features, 3u);
  EXPECT_EQ(loaded.model.tree_count(), model.tree_count());
  EXPECT_DOUBLE_EQ(loaded.model.base_score(), model.base_score());
  for (std::size_t i = 0; i < train.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded.model.predict(train.row(i)),
                     model.predict(train.row(i)));
  }
}

TEST(Serialize, HexDoublesSurviveExtremeValues) {
  // A single-sample model stresses exact base-score round-tripping.
  Dataset d(1);
  d.add(std::vector<double>{1.0}, 1.2345678901234567e-7);
  GradientBoostedTrees model;
  ceal::Rng rng(2);
  model.fit(d, rng);
  std::stringstream buffer;
  save_gbt(model, buffer, 1);
  const auto loaded = load_gbt(buffer);
  EXPECT_DOUBLE_EQ(loaded.model.predict(std::vector<double>{1.0}),
                   model.predict(std::vector<double>{1.0}));
}

TEST(Serialize, FileRoundTrip) {
  ceal::Rng rng(3);
  const Dataset train = training_data(40, rng);
  GradientBoostedTrees model;
  model.fit(train, rng);
  const std::string path = ::testing::TempDir() + "ceal_model_test.gbt";
  save_gbt_file(model, path, 3);
  const auto loaded = load_gbt_file(path);
  EXPECT_DOUBLE_EQ(loaded.model.predict(train.row(0)),
                   model.predict(train.row(0)));
  std::remove(path.c_str());
}

TEST(Serialize, FailedSaveLeavesTheOldFileIntact) {
  ceal::Rng rng(6);
  const Dataset train = training_data(40, rng);
  GradientBoostedTrees model;
  model.fit(train, rng);
  const std::string path = ::testing::TempDir() + "ceal_model_atomic.gbt";
  save_gbt_file(model, path, 3);

  // Saving an unfitted model over the file throws before anything is
  // published: the old model stays loadable and no temp file remains.
  GradientBoostedTrees unfitted;
  EXPECT_THROW(save_gbt_file(unfitted, path, 3), ceal::PreconditionError);
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  const auto loaded = load_gbt_file(path);
  for (std::size_t i = 0; i < train.size(); ++i) {
    ASSERT_EQ(loaded.model.predict(train.row(i)), model.predict(train.row(i)));
  }
  std::remove(path.c_str());
}

TEST(Serialize, LoadsModelFilesOfTheFormerHistTrainer) {
  // A v2 file as the histogram trainer wrote it, with its compiled flag
  // set. It loads as a quantized model and predicts exactly what its
  // trees say.
  std::stringstream buffer(
      "gbt v2 2 2 0x1.999999999999ap-4 0x1.4p+1\n"
      "params hist 64 1\n"
      "tree 3\n"
      "node 0 0x1.8p+1 1 2 0x0p+0\n"
      "node 0 0x0p+0 -1 -1 -0x1p+0\n"
      "node 0 0x0p+0 -1 -1 0x1.8p+0\n"
      "tree 3\n"
      "node 1 0x1p-1 1 2 0x0p+0\n"
      "node 0 0x0p+0 -1 -1 0x1p-2\n"
      "node 0 0x0p+0 -1 -1 -0x1p-3\n");
  const LoadedGbt loaded = load_gbt(buffer);
  EXPECT_EQ(loaded.n_features, 2u);
  EXPECT_EQ(loaded.model.params().tree.method, TreeMethod::kQuantized);
  EXPECT_EQ(loaded.model.params().tree.max_bins, 64u);
  ASSERT_EQ(loaded.model.tree_count(), 2u);
  const double lr = 0x1.999999999999ap-4;
  for (const double a : {0.0, 3.0, 3.5, 10.0}) {
    for (const double b : {-1.0, 0.5, 0.75}) {
      const std::vector<double> x{a, b};
      double expected = 0x1.4p+1;
      for (const auto& tree : loaded.model.trees()) {
        expected += lr * tree.predict(x);
      }
      ASSERT_EQ(loaded.model.predict(x), expected) << a << "," << b;
    }
  }
}

TEST(Serialize, RejectsUnfittedModel) {
  GradientBoostedTrees model;
  std::stringstream buffer;
  EXPECT_THROW(save_gbt(model, buffer, 2), ceal::PreconditionError);
}

TEST(Serialize, RejectsWrongMagic) {
  std::stringstream buffer("xgb v1 3 1 0x1p-3 0x0p+0\n");
  EXPECT_THROW(load_gbt(buffer), ceal::PreconditionError);
}

TEST(Serialize, RejectsTruncatedFile) {
  ceal::Rng rng(4);
  const Dataset train = training_data(20, rng);
  GradientBoostedTrees model;
  model.fit(train, rng);
  std::stringstream buffer;
  save_gbt(model, buffer, 3);
  std::string text = buffer.str();
  text.resize(text.size() / 2);
  std::stringstream half(text);
  EXPECT_THROW(load_gbt(half), ceal::PreconditionError);
}

TEST(Serialize, RejectsOutOfRangeFeature) {
  std::stringstream buffer(
      "gbt v1 2 1 0x1p-3 0x0p+0\n"
      "tree 1\n"
      "node 5 0x0p+0 -1 -1 0x1p+0\n");  // feature 5 >= n_features 2
  EXPECT_THROW(load_gbt(buffer), ceal::PreconditionError);
}

TEST(ImportNodes, ValidatesTreeStructure) {
  // Orphan node (never referenced).
  std::vector<TreeNodeData> orphan{
      {0, 0.5, -1, -1, 1.0},
      {0, 0.5, -1, -1, 2.0},
  };
  EXPECT_THROW(RegressionTree::import_nodes(orphan),
               ceal::PreconditionError);

  // Child index out of range.
  std::vector<TreeNodeData> bad_child{{0, 0.5, 1, 7, 0.0}};
  EXPECT_THROW(RegressionTree::import_nodes(bad_child),
               ceal::PreconditionError);

  // One-sided node.
  std::vector<TreeNodeData> one_sided{{0, 0.5, 1, -1, 0.0},
                                      {0, 0.0, -1, -1, 1.0}};
  EXPECT_THROW(RegressionTree::import_nodes(one_sided),
               ceal::PreconditionError);

  // A proper three-node tree.
  std::vector<TreeNodeData> good{{0, 0.5, 1, 2, 0.0},
                                 {0, 0.0, -1, -1, 1.0},
                                 {0, 0.0, -1, -1, 2.0}};
  const auto tree = RegressionTree::import_nodes(good);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{0.0}), 1.0);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{1.0}), 2.0);
}

TEST(ImportNodes, ExportImportRoundTrip) {
  ceal::Rng rng(5);
  const Dataset train = training_data(60, rng);
  GradientBoostedTrees model;
  model.fit(train, rng);
  const auto& tree = model.trees().front();
  const auto reimported = RegressionTree::import_nodes(tree.export_nodes());
  for (std::size_t i = 0; i < train.size(); ++i) {
    EXPECT_DOUBLE_EQ(reimported.predict(train.row(i)),
                     tree.predict(train.row(i)));
  }
}

}  // namespace
}  // namespace ceal::ml
