#include "ml/gbt.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <vector>

#include "core/error.h"
#include "core/rng.h"
#include "core/stats.h"
#include "tests/ml/feature_rows.h"

namespace ceal::ml {

void PrintTo(const TreeFitTally& t, std::ostream* os) {
  *os << "{fits " << t.fits << ", nodes " << t.nodes << ", leaves "
      << t.leaves << ", searched_nodes " << t.searched_nodes
      << ", searched_features " << t.searched_features << ", memo_hits "
      << t.memo_hits << ", memo_misses " << t.memo_misses
      << ", memo_clears " << t.memo_clears << ", quantized_hits "
      << t.quantized_hits << ", quantized_misses " << t.quantized_misses
      << "}";
}

namespace {

Dataset quadratic_data(std::size_t n, ceal::Rng& rng) {
  Dataset d(2);
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform(-2.0, 2.0);
    const double x1 = rng.uniform(-2.0, 2.0);
    d.add(std::vector<double>{x0, x1}, x0 * x0 + 0.5 * x1);
  }
  return d;
}

double test_rmse(const GradientBoostedTrees& model, const Dataset& test) {
  const auto pred = model.predict_matrix(rows_of(test));
  return ceal::rmse(test.targets(), pred);
}

TEST(Gbt, FitsSmoothFunction) {
  ceal::Rng rng(1);
  const Dataset train = quadratic_data(400, rng);
  const Dataset test = quadratic_data(100, rng);
  GradientBoostedTrees model;
  model.fit(train, rng);
  EXPECT_LT(test_rmse(model, test), 0.35);
}

TEST(Gbt, MoreRoundsReduceTrainError) {
  ceal::Rng rng(2);
  const Dataset train = quadratic_data(200, rng);
  GbtParams few;
  few.n_rounds = 5;
  GbtParams many;
  many.n_rounds = 200;
  GradientBoostedTrees weak(few), strong(many);
  ceal::Rng r1(3), r2(3);
  weak.fit(train, r1);
  strong.fit(train, r2);
  EXPECT_LT(test_rmse(strong, train), test_rmse(weak, train));
}

TEST(Gbt, BaseScoreIsTargetMean) {
  Dataset d(1);
  d.add(std::vector<double>{0.0}, 2.0);
  d.add(std::vector<double>{1.0}, 4.0);
  GradientBoostedTrees model;
  ceal::Rng rng(4);
  model.fit(d, rng);
  EXPECT_DOUBLE_EQ(model.base_score(), 3.0);
}

TEST(Gbt, SingleSamplePredictsNearIt) {
  Dataset d(1);
  d.add(std::vector<double>{0.0}, 7.0);
  GradientBoostedTrees model;
  ceal::Rng rng(5);
  model.fit(d, rng);
  EXPECT_NEAR(model.predict(std::vector<double>{0.0}), 7.0, 1e-6);
}

TEST(Gbt, DeterministicGivenSeed) {
  ceal::Rng data_rng(6);
  const Dataset train = quadratic_data(100, data_rng);
  GradientBoostedTrees a, b;
  ceal::Rng r1(7), r2(7);
  a.fit(train, r1);
  b.fit(train, r2);
  for (double x = -2.0; x <= 2.0; x += 0.5) {
    EXPECT_DOUBLE_EQ(a.predict(std::vector<double>{x, 0.0}),
                     b.predict(std::vector<double>{x, 0.0}));
  }
}

TEST(Gbt, RefitDiscardsPreviousModel) {
  Dataset d1(1), d2(1);
  d1.add(std::vector<double>{0.0}, 0.0);
  d2.add(std::vector<double>{0.0}, 100.0);
  GradientBoostedTrees model;
  ceal::Rng rng(8);
  model.fit(d1, rng);
  model.fit(d2, rng);
  EXPECT_NEAR(model.predict(std::vector<double>{0.0}), 100.0, 1e-6);
  EXPECT_EQ(model.tree_count(), model.params().n_rounds);
}

TEST(Gbt, PredictBeforeFitThrows) {
  GradientBoostedTrees model;
  EXPECT_FALSE(model.is_fitted());
  EXPECT_THROW(model.predict(std::vector<double>{1.0}),
               ceal::PreconditionError);
}

TEST(Gbt, EmptyDatasetRejected) {
  GradientBoostedTrees model;
  ceal::Rng rng(9);
  const Dataset empty(1);
  EXPECT_THROW(model.fit(empty, rng), ceal::PreconditionError);
}

TEST(Gbt, InvalidParamsRejected) {
  GbtParams p;
  p.learning_rate = 0.0;
  EXPECT_THROW(GradientBoostedTrees{p}, ceal::PreconditionError);
  p = GbtParams{};
  p.n_rounds = 0;
  EXPECT_THROW(GradientBoostedTrees{p}, ceal::PreconditionError);
  p = GbtParams{};
  p.subsample = 1.5;
  EXPECT_THROW(GradientBoostedTrees{p}, ceal::PreconditionError);
}

TEST(Gbt, SubsamplingStillLearnsTrend) {
  ceal::Rng rng(10);
  const Dataset train = quadratic_data(400, rng);
  GbtParams p = GradientBoostedTrees::surrogate_defaults();
  p.subsample = 0.5;
  GradientBoostedTrees model(p);
  model.fit(train, rng);
  // Prediction at x0 = 2 (high) must exceed prediction at x0 = 0 (low).
  EXPECT_GT(model.predict(std::vector<double>{2.0, 0.0}),
            model.predict(std::vector<double>{0.0, 0.0}));
}

TEST(Gbt, OutlierIsolatedFromGoodRegion) {
  // Regression guard: a single extreme sample must not drag down/up the
  // predictions of the dense cluster (requires min_samples_leaf == 1 in
  // the surrogate defaults).
  Dataset d(1);
  for (int i = 0; i < 9; ++i) {
    d.add(std::vector<double>{static_cast<double>(i)}, 10.0);
  }
  d.add(std::vector<double>{100.0}, 5000.0);
  GradientBoostedTrees model(GradientBoostedTrees::surrogate_defaults());
  ceal::Rng rng(11);
  model.fit(d, rng);
  EXPECT_NEAR(model.predict(std::vector<double>{4.0}), 10.0, 2.0);
  EXPECT_GT(model.predict(std::vector<double>{100.0}), 1000.0);
}

// ---------------------------------------------------------------------
// Bit-identity oracle for the exact trainer (kExact, the default every
// reproduced figure is pinned to). Node counts, a fingerprint of every
// node and prediction, and sample predictions were recorded as
// hex-floats at the commit before the split search moved to contiguous
// sort keys; a change that moves a sort's tie order, the g_left
// summation order or a threshold shows up here.

/// Continuous, all-distinct features.
Dataset continuous_data(std::size_t n, ceal::Rng& rng) {
  Dataset d(3);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform(0.0, 4.0);
    const double b = rng.uniform(-1.0, 1.0);
    const double c = rng.uniform(1.0, 3.0);
    d.add(std::vector<double>{a, b, c}, a * a - 2.0 * b + 1.0 / c);
  }
  return d;
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (8 * byte)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// FNV-1a over the bits of every node of every tree, then of every
/// prediction.
std::uint64_t fingerprint(const GradientBoostedTrees& model,
                          const std::vector<double>& predictions) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& tree : model.trees()) {
    for (const TreeNodeData& n : tree.export_nodes()) {
      h = fnv1a(h, n.feature);
      h = fnv1a(h, std::bit_cast<std::uint64_t>(n.threshold));
      h = fnv1a(h, static_cast<std::uint64_t>(n.left));
      h = fnv1a(h, static_cast<std::uint64_t>(n.right));
      h = fnv1a(h, std::bit_cast<std::uint64_t>(n.weight));
    }
  }
  for (const double p : predictions) {
    h = fnv1a(h, std::bit_cast<std::uint64_t>(p));
  }
  return h;
}

struct ExactGolden {
  std::size_t node_count;
  std::uint64_t fingerprint;
  double predictions[10];  // pool rows 0, 20, ..., 180
};

void expect_exact_golden(
    const Dataset& train, const Dataset& pool, const ExactGolden& golden,
    const GbtParams& params = GradientBoostedTrees::surrogate_defaults()) {
  GradientBoostedTrees model(params);
  ceal::Rng fit_rng(5);
  model.fit(train, fit_rng);
  const auto pred = model.predict_matrix(rows_of(pool));
  ASSERT_EQ(pred.size(), 200u);
  std::size_t nodes = 0;
  for (const auto& tree : model.trees()) nodes += tree.node_count();
  EXPECT_EQ(nodes, golden.node_count);
  EXPECT_EQ(fingerprint(model, pred), golden.fingerprint);
  for (std::size_t k = 0; k < 10; ++k) {
    EXPECT_EQ(pred[20 * k], golden.predictions[k]) << "pool row " << 20 * k;
  }
}

TEST(GbtExactGolden, TieHeavyIntegerFeatures) {
  ceal::Rng rng(13);
  const Dataset train = tie_heavy_data(500, rng);
  const Dataset pool = tie_heavy_data(200, rng);
  expect_exact_golden(train, pool,
                      {8386,
                       0xd2af4dd4e6209cfbull,
                       {0x1.f655f52f15499p+2, 0x1.36be7169fc4b7p+3,
                        0x1.e10a6eb273858p+3, 0x1.6a7eea9351e2ap+3,
                        0x1.4083aac4e6c1cp+4, 0x1.5c2bd5385a888p+5,
                        0x1.ff304beaedf85p+3, 0x1.846319cff8c0fp+4,
                        0x1.d37b5c26a393bp+3, 0x1.0add21c36f10dp+3}});
}

TEST(GbtExactGolden, ContinuousFeatures) {
  ceal::Rng rng(14);
  const Dataset train = continuous_data(50, rng);
  const Dataset pool = continuous_data(200, rng);
  expect_exact_golden(train, pool,
                      {3900,
                       0x22ebf20065dac58full,
                       {0x1.61d97f568c47ap-3, 0x1.0f6aa14c6f27dp+3,
                        0x1.00ec5ca47fd51p-1, 0x1.cc076d31470efp+3,
                        0x1.a30a7b9ab44a2p+1, 0x1.2cb527b1150ecp+0,
                        0x1.992d6a03f9a8p+2, 0x1.79d96ebf8ff36p+3,
                        0x1.0345a1b9a9b29p-2, 0x1.e3605d2e02acap+2}});
}

TEST(GbtExactGolden, SubsampledRowsAndColumns) {
  // Per-round row samples and per-tree feature pools: the inputs a sort
  // chain memo must key on.
  ceal::Rng rng(15);
  const Dataset train = tie_heavy_data(500, rng);
  const Dataset pool = tie_heavy_data(200, rng);
  GbtParams params = GradientBoostedTrees::surrogate_defaults();
  params.subsample = 0.7;
  params.tree.colsample = 0.6;
  expect_exact_golden(train, pool,
                      {6078,
                       0x09f545da16825d60ull,
                       {0x1.a79266e78fa02p+4, 0x1.2aa67dee04ac5p+4,
                        0x1.03952688b5585p+4, 0x1.347b3e3f27df7p+4,
                        0x1.942f5b563a5d1p+5, 0x1.d4cc5c0f671d1p+4,
                        0x1.e2a522cd75ebap+3, 0x1.3661c532e7d27p+3,
                        0x1.3ec2ede5a852dp+3, 0x1.a2707ed7b6b9dp+4}},
                      params);
}

TEST(Gbt, ExactFitReplaysEveryRootAfterTheFirst) {
  // subsample = 1 and colsample = 1: every round's root sorts the same
  // row list under the same feature pool.
  ceal::Rng rng(16);
  const Dataset train = tie_heavy_data(200, rng);
  GbtParams params = GradientBoostedTrees::surrogate_defaults();
  params.n_rounds = 40;
  GradientBoostedTrees model(params);
  model.fit(train, rng);
  const TreeFitTally& t = model.fit_tally();
  EXPECT_GE(t.memo_hits, params.n_rounds - 1);
  EXPECT_EQ(t.memo_hits + t.memo_misses, t.searched_nodes);
}

TEST(Gbt, FitTallyIsTheLastFitsAndEmptyForFromParts) {
  ceal::Rng rng(17);
  const Dataset small = tie_heavy_data(60, rng);
  const Dataset large = tie_heavy_data(200, rng);
  GbtParams params = GradientBoostedTrees::surrogate_defaults();
  params.n_rounds = 10;
  GradientBoostedTrees fresh(params);
  ceal::Rng fresh_rng(18);
  fresh.fit(large, fresh_rng);

  GradientBoostedTrees refit(params);
  ceal::Rng refit_rng(18);
  refit.fit(small, refit_rng);
  refit_rng = ceal::Rng(18);
  refit.fit(large, refit_rng);
  EXPECT_EQ(refit.fit_tally(), fresh.fit_tally());
  EXPECT_EQ(refit.fit_tally().fits, params.n_rounds);

  const auto parts = GradientBoostedTrees::from_parts(
      params, fresh.base_score(), fresh.trees());
  EXPECT_EQ(parts.tree_count(), params.n_rounds);
  EXPECT_EQ(parts.fit_tally(), TreeFitTally{});
}

// ---------------------------------------------------------------------
// What a fit tallies. The expected values were recorded when every tree
// counted into a Telemetry itself, as the counters `gbt.rounds` (the
// model's tree_count()) and `tree.*` (the tally's fields, zero where no
// counter was created): a fit must keep them. Tuners report them under
// those names (tuner/tuning_util.h, tests/tuner/test_tuning_util.cc).

TreeFitTally fit_tally(const Dataset& train, const GbtParams& params,
                       ceal::Rng& rng) {
  GradientBoostedTrees model(params);
  model.fit(train, rng);
  EXPECT_EQ(model.tree_count(), params.n_rounds);
  return model.fit_tally();
}

TEST(GbtTelemetry, ExactTieHeavyFit) {
  ceal::Rng rng(41);
  const Dataset train = tie_heavy_data(200, rng);
  GbtParams params = GradientBoostedTrees::surrogate_defaults();
  params.n_rounds = 40;
  EXPECT_EQ(fit_tally(train, params, rng),
            (TreeFitTally{.fits = 40,
                          .nodes = 1936,
                          .leaves = 988,
                          .searched_nodes = 1169,
                          .searched_features = 5845,
                          .memo_hits = 822,
                          .memo_misses = 347}));
}

TEST(GbtTelemetry, ExactSubsampledFitOutgrowsItsMemo) {
  // 1050-row samples: a tree's memo entries take ~0.1 MiB, so the
  // 256 KiB budget clears every two or three rounds, and no sample
  // repeats, so nothing replays.
  ceal::Rng rng(42);
  const Dataset train = tie_heavy_data(1500, rng);
  GbtParams params = GradientBoostedTrees::surrogate_defaults();
  params.n_rounds = 20;
  params.subsample = 0.7;
  EXPECT_EQ(fit_tally(train, params, rng),
            (TreeFitTally{.fits = 20,
                          .nodes = 922,
                          .leaves = 471,
                          .searched_nodes = 536,
                          .searched_features = 2680,
                          .memo_misses = 536,
                          .memo_clears = 8}));
}

TEST(GbtTelemetry, QuantizedFit) {
  ceal::Rng rng(43);
  const Dataset train = tie_heavy_data(300, rng);
  GbtParams params = GradientBoostedTrees::surrogate_defaults();
  params.n_rounds = 30;
  params.subsample = 0.8;
  params.tree.method = TreeMethod::kQuantized;
  EXPECT_EQ(fit_tally(train, params, rng),
            (TreeFitTally{.fits = 30,
                          .nodes = 1332,
                          .leaves = 681,
                          .searched_nodes = 790,
                          .searched_features = 3950,
                          .quantized_hits = 30}));
}

TEST(GbtTelemetry, QuantizedTreesWithoutASharedMatrixTallyMisses) {
  // Boosting rounds grown one fit_gradients call at a time, sharing a
  // TreeFitState that holds no QuantizedMatrix: every tree bins the data
  // itself. The values are the tree.* counters recorded before the tally.
  ceal::Rng rng(44);
  const Dataset train = continuous_data(120, rng);
  TreeParams params = GradientBoostedTrees::surrogate_defaults().tree;
  params.method = TreeMethod::kQuantized;
  const std::size_t n = train.size();
  std::vector<double> pred(n, 0.0), grad(n), hess(n, 1.0);
  std::vector<std::size_t> rows(n);
  for (std::size_t i = 0; i < n; ++i) rows[i] = i;
  TreeFitState fit;
  for (int round = 0; round < 10; ++round) {
    for (std::size_t i = 0; i < n; ++i) grad[i] = pred[i] - train.target(i);
    RegressionTree tree(params);
    tree.fit_gradients(train, rows, grad, hess, rng, nullptr, &fit);
    for (std::size_t i = 0; i < n; ++i) {
      pred[i] += 0.3 * tree.predict(train.row(i));
    }
  }
  const TreeFitTally& t = fit.tally;
  EXPECT_EQ(t.fits, 10u);
  EXPECT_EQ(t.nodes, 250u);
  EXPECT_EQ(t.leaves, 130u);
  EXPECT_EQ(t.searched_nodes, 178u);
  EXPECT_EQ(t.searched_features, 534u);
  EXPECT_EQ(t.quantized_hits, 0u);
  EXPECT_EQ(t.quantized_misses, 10u);
  EXPECT_EQ(t.memo_hits + t.memo_misses + t.memo_clears, 0u);
}

}  // namespace
}  // namespace ceal::ml
