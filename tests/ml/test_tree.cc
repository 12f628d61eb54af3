#include "ml/tree.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/error.h"
#include "core/rng.h"

namespace ceal::ml {
namespace {

// Builds a dataset plus the CART-equivalent gradient encoding
// (g = -y, h = 1) used throughout these tests.
struct CartProblem {
  Dataset data{1};
  std::vector<double> g;
  std::vector<double> h;
  std::vector<std::size_t> rows;

  explicit CartProblem(std::size_t width) : data(width) {}

  void add(std::vector<double> x, double y) {
    data.add(x, y);
    g.push_back(-y);
    h.push_back(1.0);
    rows.push_back(rows.size());
  }
};

TreeParams cart_params(std::size_t max_depth = 6,
                       std::size_t min_leaf = 1) {
  TreeParams p;
  p.max_depth = max_depth;
  p.min_samples_leaf = min_leaf;
  p.min_child_weight = 0.0;
  p.lambda = 0.0;
  return p;
}

TEST(RegressionTree, SingleLeafPredictsMean) {
  CartProblem prob(1);
  prob.add({1.0}, 2.0);
  prob.add({2.0}, 4.0);
  RegressionTree tree(cart_params(/*max_depth=*/1, /*min_leaf=*/2));
  ceal::Rng rng(1);
  tree.fit_gradients(prob.data, prob.rows, prob.g, prob.h, rng);
  // min_samples_leaf = 2 forbids splitting two samples.
  EXPECT_EQ(tree.leaf_count(), 1u);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{0.0}), 3.0);
}

TEST(RegressionTree, LearnsASingleThresholdSplit) {
  CartProblem prob(1);
  for (double x = 0.0; x < 5.0; x += 1.0) prob.add({x}, 1.0);
  for (double x = 5.0; x < 10.0; x += 1.0) prob.add({x}, 9.0);
  RegressionTree tree(cart_params());
  ceal::Rng rng(2);
  tree.fit_gradients(prob.data, prob.rows, prob.g, prob.h, rng);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{2.0}), 1.0);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{7.0}), 9.0);
}

TEST(RegressionTree, PicksTheInformativeFeature) {
  CartProblem prob(2);
  ceal::Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const double x0 = rng.uniform01();              // noise feature
    const double x1 = static_cast<double>(i % 2);   // informative feature
    prob.add({x0, x1}, x1 * 10.0);
  }
  RegressionTree tree(cart_params());
  tree.fit_gradients(prob.data, prob.rows, prob.g, prob.h, rng);
  EXPECT_NEAR(tree.predict(std::vector<double>{0.5, 0.0}), 0.0, 1e-9);
  EXPECT_NEAR(tree.predict(std::vector<double>{0.5, 1.0}), 10.0, 1e-9);
}

TEST(RegressionTree, DepthLimitIsRespected) {
  CartProblem prob(1);
  for (int i = 0; i < 64; ++i) {
    prob.add({static_cast<double>(i)}, static_cast<double>(i));
  }
  RegressionTree tree(cart_params(/*max_depth=*/3));
  ceal::Rng rng(4);
  tree.fit_gradients(prob.data, prob.rows, prob.g, prob.h, rng);
  EXPECT_LE(tree.depth(), 4u);      // depth counts nodes on the path
  EXPECT_LE(tree.leaf_count(), 8u);  // 2^3 leaves at most
}

TEST(RegressionTree, MinSamplesLeafBoundsLeafSize) {
  CartProblem prob(1);
  for (int i = 0; i < 20; ++i) {
    prob.add({static_cast<double>(i)}, static_cast<double>(i % 7));
  }
  RegressionTree tree(cart_params(/*max_depth=*/10, /*min_leaf=*/5));
  ceal::Rng rng(5);
  tree.fit_gradients(prob.data, prob.rows, prob.g, prob.h, rng);
  EXPECT_LE(tree.leaf_count(), 4u);  // 20 / 5
}

TEST(RegressionTree, ConstantTargetsStaySingleLeaf) {
  CartProblem prob(1);
  for (int i = 0; i < 10; ++i) {
    prob.add({static_cast<double>(i)}, 7.0);
  }
  RegressionTree tree(cart_params());
  ceal::Rng rng(6);
  tree.fit_gradients(prob.data, prob.rows, prob.g, prob.h, rng);
  EXPECT_EQ(tree.leaf_count(), 1u);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{3.0}), 7.0);
}

TEST(RegressionTree, IdenticalFeatureValuesCannotSplit) {
  CartProblem prob(1);
  prob.add({1.0}, 0.0);
  prob.add({1.0}, 10.0);
  prob.add({1.0}, 20.0);
  RegressionTree tree(cart_params());
  ceal::Rng rng(7);
  tree.fit_gradients(prob.data, prob.rows, prob.g, prob.h, rng);
  EXPECT_EQ(tree.leaf_count(), 1u);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{1.0}), 10.0);
}

TEST(RegressionTree, LambdaShrinksLeafValues) {
  CartProblem prob(1);
  prob.add({0.0}, 10.0);
  TreeParams p = cart_params();
  p.lambda = 1.0;  // leaf = sum(y) / (n + lambda) = 10 / 2
  RegressionTree tree(p);
  ceal::Rng rng(8);
  tree.fit_gradients(prob.data, prob.rows, prob.g, prob.h, rng);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{0.0}), 5.0);
}

TEST(RegressionTree, GammaSuppressesWeakSplits) {
  CartProblem prob(1);
  for (double x = 0.0; x < 4.0; x += 1.0) prob.add({x}, x * 0.001);
  TreeParams p = cart_params();
  p.gamma = 100.0;  // any split gain is far below gamma
  RegressionTree tree(p);
  ceal::Rng rng(9);
  tree.fit_gradients(prob.data, prob.rows, prob.g, prob.h, rng);
  EXPECT_EQ(tree.leaf_count(), 1u);
}

TEST(RegressionTree, SubsetOfRowsOnlyUsesThoseRows) {
  CartProblem prob(1);
  prob.add({0.0}, 0.0);
  prob.add({1.0}, 100.0);  // excluded below
  prob.add({2.0}, 0.0);
  const std::vector<std::size_t> rows{0, 2};
  RegressionTree tree(cart_params());
  ceal::Rng rng(10);
  tree.fit_gradients(prob.data, rows, prob.g, prob.h, rng);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{1.0}), 0.0);
}

TEST(RegressionTree, PredictBeforeFitThrows) {
  RegressionTree tree;
  EXPECT_THROW(tree.predict(std::vector<double>{1.0}),
               ceal::PreconditionError);
}

TEST(RegressionTree, EmptyRowsRejected) {
  CartProblem prob(1);
  prob.add({0.0}, 0.0);
  RegressionTree tree;
  ceal::Rng rng(11);
  const std::vector<std::size_t> empty;
  EXPECT_THROW(tree.fit_gradients(prob.data, empty, prob.g, prob.h, rng),
               ceal::PreconditionError);
}

TEST(RegressionTree, OutOfRangeRowIndexRejected) {
  // The exact trainer reads the row-major buffer unchecked, so every row
  // index is validated once up front.
  CartProblem prob(2);
  prob.add({0.0, 1.0}, 0.0);
  prob.add({1.0, 0.0}, 1.0);
  RegressionTree tree;
  ceal::Rng rng(13);
  const std::vector<std::size_t> rows{0, 1, 2};
  EXPECT_THROW(tree.fit_gradients(prob.data, rows, prob.g, prob.h, rng),
               ceal::PreconditionError);
  EXPECT_FALSE(tree.is_fitted());
}

TEST(RegressionTree, ColsampleOneUsesAllFeatures) {
  // With colsample = 1 the informative second feature must be found.
  CartProblem prob(3);
  for (int i = 0; i < 30; ++i) {
    prob.add({0.0, static_cast<double>(i % 2), 0.0},
             static_cast<double>(i % 2));
  }
  TreeParams p = cart_params();
  p.colsample = 1.0;
  RegressionTree tree(p);
  ceal::Rng rng(12);
  tree.fit_gradients(prob.data, prob.rows, prob.g, prob.h, rng);
  EXPECT_NEAR(tree.predict(std::vector<double>{0.0, 1.0, 0.0}), 1.0, 1e-9);
}

}  // namespace
}  // namespace ceal::ml
