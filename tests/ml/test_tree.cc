#include "ml/tree.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/error.h"
#include "core/rng.h"
#include "core/telemetry.h"

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

// ---------------------------------------------------------------------
// SortChainMemo differential: boosting-style rounds grown through
// fit_gradients with and without a memo must give bitwise-equal trees.

/// Integer features with at most 8 levels (ties everywhere), one of them
/// a monotone copy of another so near-tied gains are common.
Dataset memo_tie_heavy(std::size_t n, ceal::Rng& rng) {
  Dataset d(4);
  for (std::size_t i = 0; i < n; ++i) {
    const auto a = static_cast<double>(rng.uniform_int(1, 8));
    const auto b = static_cast<double>(rng.uniform_int(1, 4));
    const auto c = static_cast<double>(rng.uniform_int(0, 7));
    d.add(std::vector<double>{a, b, c, 4.0 * a},
          30.0 / a + 2.0 * b + 0.5 * c + rng.normal(0.0, 0.2));
  }
  return d;
}

Dataset memo_continuous(std::size_t n, ceal::Rng& rng) {
  Dataset d(3);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform(0.0, 4.0);
    const double b = rng.uniform(-1.0, 1.0);
    const double c = rng.uniform(1.0, 3.0);
    d.add(std::vector<double>{a, b, c}, a * a - 2.0 * b + 1.0 / c);
  }
  return d;
}

enum class RoundRows {
  kAll,        // every row, every round (subsample = 1)
  kSubsample,  // a fresh 70% sample without replacement per round
  kBootstrap,  // one bootstrap sample (with duplicates) for all rounds
};

/// Node tables of `rounds` trees grown on squared-error gradients, each
/// round updating the predictions with learning rate 0.3.
std::vector<std::vector<TreeNodeData>> grow_rounds(
    const Dataset& data, const TreeParams& params, RoundRows mode,
    std::size_t rounds, SortChainMemo* memo,
    telemetry::Telemetry* telemetry = nullptr) {
  const std::size_t n = data.size();
  ceal::Rng rng(77);
  std::vector<std::size_t> bootstrap(n);
  for (std::size_t& r : bootstrap) {
    r = static_cast<std::size_t>(rng.uniform_u64(n));
  }
  std::vector<double> pred(n, 0.0), grad(n), hess(n, 1.0);
  std::vector<std::vector<TreeNodeData>> out;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < n; ++i) grad[i] = pred[i] - data.target(i);
    std::vector<std::size_t> rows;
    if (mode == RoundRows::kAll) {
      for (std::size_t i = 0; i < n; ++i) rows.push_back(i);
    } else if (mode == RoundRows::kSubsample) {
      rows = rng.sample_without_replacement(n, (7 * n) / 10);
    } else {
      rows = bootstrap;
    }
    RegressionTree tree(params);
    tree.fit_gradients(data, rows, grad, hess, rng, nullptr, telemetry,
                       nullptr, nullptr, memo);
    if (memo != nullptr) {
      EXPECT_LE(memo->bytes_used(), memo->budget_bytes());
    }
    for (std::size_t i = 0; i < n; ++i) {
      pred[i] += 0.3 * tree.predict(data.row(i));
    }
    out.push_back(tree.export_nodes());
  }
  return out;
}

void expect_same_trees(const std::vector<std::vector<TreeNodeData>>& a,
                       const std::vector<std::vector<TreeNodeData>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t) {
    ASSERT_EQ(a[t].size(), b[t].size()) << "tree " << t;
    for (std::size_t k = 0; k < a[t].size(); ++k) {
      const TreeNodeData& x = a[t][k];
      const TreeNodeData& y = b[t][k];
      EXPECT_EQ(x.feature, y.feature) << "tree " << t << " node " << k;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(x.threshold),
                std::bit_cast<std::uint64_t>(y.threshold))
          << "tree " << t << " node " << k;
      EXPECT_EQ(x.left, y.left) << "tree " << t << " node " << k;
      EXPECT_EQ(x.right, y.right) << "tree " << t << " node " << k;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(x.weight),
                std::bit_cast<std::uint64_t>(y.weight))
          << "tree " << t << " node " << k;
    }
  }
}

struct MemoCase {
  bool tie_heavy;
  RoundRows rows;
  double colsample;
};

class SortChainMemoDifferential : public ::testing::TestWithParam<MemoCase> {};

TEST_P(SortChainMemoDifferential, MemoNeverChangesATree) {
  const MemoCase c = GetParam();
  ceal::Rng data_rng(c.tie_heavy ? 31 : 32);
  const Dataset data = c.tie_heavy ? memo_tie_heavy(300, data_rng)
                                   : memo_continuous(120, data_rng);
  TreeParams params;
  params.max_depth = 5;
  params.min_child_weight = 0.25;
  params.colsample = c.colsample;
  telemetry::Telemetry tel;
  SortChainMemo memo;
  const auto with_memo =
      grow_rounds(data, params, c.rows, 25, &memo, &tel);
  const auto without = grow_rounds(data, params, c.rows, 25, nullptr);
  expect_same_trees(with_memo, without);
  if (c.rows != RoundRows::kSubsample) {
    // Repeating row lists: roots recur, so replays actually ran.
    EXPECT_GT(tel.counter("tree.sort_memo.hits"), 0u);
  }
  EXPECT_EQ(tel.counter("tree.sort_memo.hits") +
                tel.counter("tree.sort_memo.misses"),
            tel.counter("tree.split_search.nodes"));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SortChainMemoDifferential,
    ::testing::Values(MemoCase{true, RoundRows::kAll, 1.0},
                      MemoCase{true, RoundRows::kAll, 0.6},
                      MemoCase{true, RoundRows::kSubsample, 1.0},
                      MemoCase{true, RoundRows::kSubsample, 0.6},
                      MemoCase{true, RoundRows::kBootstrap, 1.0},
                      MemoCase{false, RoundRows::kAll, 1.0},
                      MemoCase{false, RoundRows::kAll, 0.6},
                      MemoCase{false, RoundRows::kSubsample, 1.0},
                      MemoCase{false, RoundRows::kSubsample, 0.6},
                      MemoCase{false, RoundRows::kBootstrap, 0.6}),
    [](const ::testing::TestParamInfo<MemoCase>& info) {
      const MemoCase& c = info.param;
      const char* rows = c.rows == RoundRows::kAll         ? "AllRows"
                         : c.rows == RoundRows::kSubsample ? "Subsample"
                                                           : "Bootstrap";
      return std::string(c.tie_heavy ? "TieHeavy_" : "Continuous_") + rows +
             (c.colsample < 1.0 ? "_Colsample" : "");
    });

TEST(SortChainMemo, TinyBudgetClearsAndRefillsWithoutChangingTrees) {
  ceal::Rng data_rng(33);
  const Dataset data = memo_tie_heavy(200, data_rng);
  TreeParams params;
  params.max_depth = 5;
  params.min_child_weight = 0.25;
  // A 200-row, 4-feature root entry takes ~4 KiB and a tree's new
  // entries about as much as this whole budget, so the memo clears
  // every round or two and still replays some nodes in between.
  telemetry::Telemetry tel;
  SortChainMemo memo(24 * 1024);
  const auto with_memo =
      grow_rounds(data, params, RoundRows::kAll, 30, &memo, &tel);
  const auto without =
      grow_rounds(data, params, RoundRows::kAll, 30, nullptr);
  expect_same_trees(with_memo, without);
  EXPECT_GT(tel.counter("tree.sort_memo.clears"), 0u);
  EXPECT_GT(tel.counter("tree.sort_memo.hits"), 0u);
}

TEST(SortChainMemo, EntryLargerThanBudgetIsNotRecorded) {
  ceal::Rng data_rng(34);
  const Dataset data = memo_continuous(100, data_rng);
  telemetry::Telemetry tel;
  SortChainMemo memo(64);  // smaller than any entry
  const auto with_memo =
      grow_rounds(data, TreeParams{}, RoundRows::kAll, 5, &memo, &tel);
  expect_same_trees(with_memo, grow_rounds(data, TreeParams{},
                                           RoundRows::kAll, 5, nullptr));
  EXPECT_EQ(tel.counter("tree.sort_memo.hits"), 0u);
  EXPECT_EQ(tel.counter("tree.sort_memo.clears"), 0u);
  EXPECT_EQ(memo.bytes_used(), 0u);
}

TEST(SortChainMemo, ServesOneDatasetOnly) {
  ceal::Rng data_rng(35);
  const Dataset a = memo_continuous(20, data_rng);
  const Dataset b = memo_continuous(20, data_rng);
  SortChainMemo memo;
  grow_rounds(a, TreeParams{}, RoundRows::kAll, 1, &memo);
  EXPECT_THROW(grow_rounds(b, TreeParams{}, RoundRows::kAll, 1, &memo),
               ceal::PreconditionError);
}

}  // namespace
}  // namespace ceal::ml
