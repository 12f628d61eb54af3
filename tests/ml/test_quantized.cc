// Quantized trainer (TreeMethod::kQuantized), held to the exact trainer
// (TreeMethod::kExact) as its oracle. The two search the same value
// boundaries when every value has its own bin, but place thresholds and
// order the gain arithmetic differently (see ml::quantile_bins), so the
// oracle pins close predictions and ranking quality, not identical
// trees. Also: recorded predictions of the former histogram trainer,
// quantile compression, max_bins validation, bitwise thread-count
// determinism of both trainers, and the shared-cache fast path of the
// ensemble fit.
#include "ml/quantized.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/error.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/stats.h"
#include "core/telemetry.h"
#include "ml/gbt.h"
#include "ml/metrics.h"
#include "ml/tree.h"

namespace ceal::ml {
namespace {

/// Surrogate-shaped synthetic task: features on tuning-parameter-like
/// grids, target with multiplicative structure plus noise.
Dataset tuning_like(std::size_t n, ceal::Rng& rng) {
  Dataset d(5);
  for (std::size_t i = 0; i < n; ++i) {
    const double procs = static_cast<double>(rng.uniform_int(1, 64));
    const double ppn = static_cast<double>(rng.uniform_int(1, 8));
    const double freq = static_cast<double>(rng.uniform_int(1, 10));
    const double block = static_cast<double>(rng.uniform_int(16, 256));
    const double aux = rng.uniform(0.0, 1.0);
    const double y = 800.0 / procs + 12.0 * freq + 0.05 * block +
                     3.0 * ppn + aux + rng.normal(0.0, 0.5);
    d.add(std::vector<double>{procs, ppn, freq, block, aux}, y);
  }
  return d;
}

GbtParams method_params(TreeMethod method) {
  GbtParams p = GradientBoostedTrees::surrogate_defaults();
  p.tree.method = method;
  return p;
}

TEST(QuantizedMatrix, BinsMatchHistCandidateSet) {
  ceal::Rng rng(5);
  Dataset d(3);
  for (std::size_t i = 0; i < 400; ++i) {
    d.add(std::vector<double>{rng.uniform(-2.0, 2.0),
                              static_cast<double>(rng.uniform_int(0, 9)),
                              rng.uniform(0.0, 100.0)},
          0.0);
  }
  const QuantizedMatrix qm(d, 64);
  for (std::size_t j = 0; j < d.n_features(); ++j) {
    // Recompute the reference cuts straight from ml::quantile_bins.
    std::vector<double> vals(d.size());
    for (std::size_t k = 0; k < d.size(); ++k) vals[k] = d.feature(k, j);
    std::sort(vals.begin(), vals.end());
    const FeatureQuantiles fq = quantile_bins(vals, 64);
    ASSERT_EQ(qm.bin_count(j), fq.bin_max.size());
    for (std::size_t b = 0; b + 1 < fq.bin_max.size(); ++b) {
      EXPECT_EQ(qm.split_value(j, b), fq.split_value[b]);
    }
    // Sandwich property: partitioning by bin index equals partitioning
    // by value <= split_value[b].
    const std::uint8_t* col = qm.column(j);
    for (std::size_t k = 0; k < d.size(); ++k) {
      const double v = d.feature(k, j);
      for (std::size_t b = 0; b + 1 < fq.bin_max.size(); ++b) {
        EXPECT_EQ(col[k] <= b, v <= fq.split_value[b])
            << "feature " << j << " row " << k << " bin " << b;
      }
    }
  }
}

TEST(QuantizedMatrix, CapsBinsAt256) {
  // Bin indices are uint8: a bin budget beyond kMaxBins is rejected,
  // never silently clamped.
  ceal::Rng rng(17);
  Dataset d(1);
  for (std::size_t i = 0; i < 2000; ++i) {
    d.add(std::vector<double>{rng.uniform(0.0, 1.0)}, 0.0);
  }
  EXPECT_THROW((QuantizedMatrix{d, kMaxBins + 1}), ceal::PreconditionError);
  EXPECT_THROW((QuantizedMatrix{d, 4096}), ceal::PreconditionError);
  EXPECT_THROW((QuantizedMatrix{d, 1}), ceal::PreconditionError);
  const QuantizedMatrix qm(d, kMaxBins);
  EXPECT_LE(qm.bin_count(0), kMaxBins);
  EXPECT_GE(qm.bin_count(0), 200u);
}

// ---- TreeHist: the histogram split finder (kQuantized, XGBoost's
// `hist`) against the kExact oracle.

TEST(TreeHist, MatchesExactRecallAndMdapeOnFixture) {
  ceal::Rng rng(42);
  const Dataset train = tuning_like(200, rng);
  const Dataset pool = tuning_like(400, rng);

  GradientBoostedTrees exact(method_params(TreeMethod::kExact));
  GradientBoostedTrees quant(method_params(TreeMethod::kQuantized));
  ceal::Rng r1(7), r2(7);
  exact.fit(train, r1);
  quant.fit(train, r2);

  const auto exact_pred = exact.predict_all(pool);
  const auto quant_pred = quant.predict_all(pool);
  const auto truth = pool.targets();

  // Acceptance contract: the two trainers rank the pool almost
  // identically — top-10 recall against the ground truth within 5
  // percentage points (0.05), MdAPE within 2 points.
  const double exact_recall = recall_score_percent(10, exact_pred, truth);
  const double quant_recall = recall_score_percent(10, quant_pred, truth);
  EXPECT_LE(std::abs(exact_recall - quant_recall), 5.0);

  const double exact_mdape = ceal::mdape_percent(truth, exact_pred);
  const double quant_mdape = ceal::mdape_percent(truth, quant_pred);
  EXPECT_LE(std::abs(exact_mdape - quant_mdape), 2.0);
}

TEST(TreeHist, FewDistinctValuesReproducesExactSplits) {
  // With fewer distinct values than bins each value gets its own bin, so
  // both trainers search the same value boundaries; on this fixture the
  // fitted ensembles agree closely on every training row.
  ceal::Rng rng(3);
  Dataset d(2);
  for (std::size_t i = 0; i < 120; ++i) {
    const double a = static_cast<double>(rng.uniform_int(0, 7));
    const double b = static_cast<double>(rng.uniform_int(0, 3));
    d.add(std::vector<double>{a, b}, 3.0 * a - 2.0 * b + rng.normal(0.0, 0.1));
  }
  GradientBoostedTrees exact(method_params(TreeMethod::kExact));
  GradientBoostedTrees quant(method_params(TreeMethod::kQuantized));
  ceal::Rng r1(5), r2(5);
  exact.fit(d, r1);
  quant.fit(d, r2);
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_NEAR(exact.predict(d.row(i)), quant.predict(d.row(i)), 1e-6);
  }
}

TEST(TreeHist, QuantileBinningHandlesManyDistinctValues) {
  ceal::Rng rng(11);
  Dataset d(3);
  for (std::size_t i = 0; i < 600; ++i) {
    const double x0 = rng.uniform(-3.0, 3.0);
    const double x1 = rng.uniform(0.0, 1000.0);
    const double x2 = rng.uniform(0.0, 1.0);
    d.add(std::vector<double>{x0, x1, x2}, x0 * x0 + 0.01 * x1 + x2);
  }
  GbtParams p = method_params(TreeMethod::kQuantized);
  p.tree.max_bins = 32;  // force real quantile compression (600 >> 32)
  const QuantizedMatrix qm(d, p.tree.max_bins);
  for (std::size_t j = 0; j < d.n_features(); ++j) {
    EXPECT_LE(qm.bin_count(j), 32u);
  }
  GradientBoostedTrees model(p);
  ceal::Rng fit_rng(1);
  model.fit(d, fit_rng);
  const auto pred = model.predict_all(d);
  EXPECT_LT(ceal::rmse(d.targets(), pred), 1.0);
}

TEST(TreeHist, ConstantFeaturesAndTinyDataStayValid) {
  // No split is possible anywhere, so both trainers grow single-leaf
  // trees with the same row-order gradient sums: bitwise-equal models.
  Dataset d(2);
  d.add(std::vector<double>{1.0, 5.0}, 2.0);
  d.add(std::vector<double>{1.0, 5.0}, 4.0);
  std::vector<double> predictions;
  for (const TreeMethod method :
       {TreeMethod::kExact, TreeMethod::kQuantized}) {
    GbtParams p = method_params(method);
    p.n_rounds = 5;
    GradientBoostedTrees model(p);
    ceal::Rng rng(2);
    model.fit(d, rng);
    for (const auto& tree : model.trees()) EXPECT_EQ(tree.node_count(), 1u);
    predictions.push_back(model.predict(d.row(0)));
  }
  EXPECT_NEAR(predictions[0], 3.0, 1.0);
  EXPECT_EQ(predictions[0], predictions[1]);
}

TEST(TreeHist, MaxBinsValidated) {
  TreeParams p;
  p.max_bins = 1;
  EXPECT_THROW(RegressionTree{p}, ceal::PreconditionError);
  p.max_bins = kMaxBins + 1;
  EXPECT_THROW(RegressionTree{p}, ceal::PreconditionError);
  p.max_bins = 1 << 17;
  EXPECT_THROW(RegressionTree{p}, ceal::PreconditionError);
  p.max_bins = 2;
  EXPECT_NO_THROW(RegressionTree{p});
  p.max_bins = kMaxBins;
  EXPECT_NO_THROW(RegressionTree{p});
}

// ---- TreeQuantized: the trainer's own fast paths.

TEST(TreeQuantized, MatchesHistWithinBinningTolerance) {
  // Predictions of the former recursive histogram trainer (kHist, same
  // quantile_bins cuts and gain/tie rules) on this fixture, recorded as
  // hex-floats before it was removed. The quantized trainer grows the
  // same trees; only the last-ulp float error of histogram subtraction
  // and the reciprocal table separates the two.
  struct HistPrediction {
    std::size_t row;
    double value;
  };
  static constexpr HistPrediction kHistPredictions[] = {
      {0, 0x1.3e901dc86572fp+6},   {25, 0x1.aa98d49d3b2cdp+6},
      {50, 0x1.f1a244d4bfc33p+6},  {75, 0x1.562a0a3d42293p+6},
      {100, 0x1.5ba9451732376p+6}, {125, 0x1.3b36962411e1ap+7},
      {150, 0x1.a37a7ea485ee9p+7}, {175, 0x1.2fd77b0de8806p+7},
      {200, 0x1.307a7c3b04419p+7}, {225, 0x1.57e60f63763cfp+7},
      {250, 0x1.c46b23fedab8ap+7}, {275, 0x1.21cb9d14855fp+7},
      {300, 0x1.ef877612757a4p+7}, {325, 0x1.c767331d5dd63p+6},
      {350, 0x1.aa8b60de4d119p+6}, {375, 0x1.0da72047cfbdfp+7},
      {400, 0x1.2a419632311cfp+6}, {425, 0x1.9c2b8e0f24cb2p+6},
      {450, 0x1.3c55e704f958cp+7}, {475, 0x1.8cc60d9a7cf5ap+7},
  };
  constexpr double kHistRecall = 80.0;
  constexpr double kHistMdape = 0x1.26a400d34e4a1p+1;

  ceal::Rng rng(42);
  const Dataset train = tuning_like(300, rng);
  const Dataset pool = tuning_like(500, rng);
  GradientBoostedTrees quant(method_params(TreeMethod::kQuantized));
  ceal::Rng fit_rng(7);
  quant.fit(train, fit_rng);
  const auto quant_pred = quant.predict_all(pool);

  for (const HistPrediction& ref : kHistPredictions) {
    const double scale = std::max(1.0, std::abs(ref.value));
    EXPECT_NEAR(ref.value, quant_pred[ref.row], 1e-6 * scale)
        << "row " << ref.row;
  }
  // And the ranking quality the tuners consume matches kHist's.
  const auto truth = pool.targets();
  EXPECT_EQ(recall_score_percent(10, quant_pred, truth), kHistRecall);
  EXPECT_LE(std::abs(ceal::mdape_percent(truth, quant_pred) - kHistMdape),
            0.1);
}

TEST(TreeQuantized, SubsampleAndColsamplePathsStayConsistent) {
  ceal::Rng rng(9);
  const Dataset train = tuning_like(250, rng);

  GbtParams p = method_params(TreeMethod::kQuantized);
  p.subsample = 0.7;       // exercises the untrained-row NaN path
  p.tree.colsample = 0.6;  // exercises the sampled feature pool

  GradientBoostedTrees model(p);
  ceal::Rng fit_rng(3);
  model.fit(train, fit_rng);
  const auto batched = model.predict_all(train);
  for (std::size_t i = 0; i < train.size(); ++i) {
    ASSERT_EQ(batched[i], model.predict(train.row(i)));
    ASSERT_TRUE(std::isfinite(batched[i]));
  }
  // The fitted model explains the training data far better than the
  // constant baseline.
  EXPECT_LT(ceal::rmse(train.targets(), batched),
            0.5 * ceal::stddev(train.targets()));
}

TEST(TreeQuantized, LeafValuesMatchPredictions) {
  ceal::Rng rng(21);
  const Dataset train = tuning_like(120, rng);
  std::vector<double> g(train.size()), h(train.size(), 1.0);
  std::vector<std::size_t> rows(train.size());
  for (std::size_t i = 0; i < train.size(); ++i) {
    g[i] = -train.target(i);
    rows[i] = i;
  }
  TreeParams p;
  p.method = TreeMethod::kQuantized;
  p.max_depth = 4;
  RegressionTree tree(p);
  ceal::Rng fit_rng(2);
  std::vector<double> leaf_values(train.size(),
                                  std::numeric_limits<double>::quiet_NaN());
  tree.fit_gradients(train, rows, g, h, fit_rng, &leaf_values);
  for (std::size_t i = 0; i < train.size(); ++i) {
    ASSERT_EQ(leaf_values[i], tree.predict(train.row(i))) << "row " << i;
  }
}

TEST(TreeQuantized, NonUnitHessiansUseTheGeneralPath) {
  // h != 1 disables the count-as-hessian shortcut; the grown tree must
  // still satisfy min_child_weight against the true hessian sums.
  ceal::Rng rng(33);
  const Dataset train = tuning_like(150, rng);
  std::vector<double> g(train.size()), h(train.size());
  std::vector<std::size_t> rows(train.size());
  for (std::size_t i = 0; i < train.size(); ++i) {
    g[i] = -train.target(i);
    h[i] = 0.5 + 0.01 * static_cast<double>(i % 7);
    rows[i] = i;
  }
  TreeParams p;
  p.method = TreeMethod::kQuantized;
  p.min_child_weight = 5.0;
  RegressionTree tree(p);
  ceal::Rng fit_rng(4);
  tree.fit_gradients(train, rows, g, h, fit_rng);
  EXPECT_GT(tree.leaf_count(), 1u);
  for (std::size_t i = 0; i < train.size(); ++i) {
    ASSERT_TRUE(std::isfinite(tree.predict(train.row(i))));
  }
}

TEST(TreeQuantized, SharedCacheMatchesTransientAndCountsHits) {
  ceal::Rng rng(12);
  const Dataset train = tuning_like(100, rng);
  std::vector<double> g(train.size()), h(train.size(), 1.0);
  std::vector<std::size_t> rows(train.size());
  for (std::size_t i = 0; i < train.size(); ++i) {
    g[i] = -train.target(i);
    rows[i] = i;
  }
  TreeParams p;
  p.method = TreeMethod::kQuantized;

  const QuantizedMatrix cache(train, p.max_bins);
  telemetry::Telemetry tel;
  RegressionTree cached(p), transient(p);
  ceal::Rng r1(6), r2(6);
  cached.fit_gradients(train, rows, g, h, r1, nullptr, &tel, &cache);
  transient.fit_gradients(train, rows, g, h, r2, nullptr, &tel);
  EXPECT_EQ(tel.counter("tree.quantized_cache.hit"), 1u);
  EXPECT_EQ(tel.counter("tree.quantized_cache.miss"), 1u);
  for (std::size_t i = 0; i < train.size(); ++i) {
    ASSERT_EQ(cached.predict(train.row(i)), transient.predict(train.row(i)));
  }
}

TEST(TreeQuantized, ConstantFeaturesAndTinyDataStayValid) {
  Dataset d(2);
  d.add(std::vector<double>{1.0, 5.0}, 2.0);
  d.add(std::vector<double>{1.0, 5.0}, 4.0);
  GbtParams p = method_params(TreeMethod::kQuantized);
  p.n_rounds = 5;
  GradientBoostedTrees model(p);
  ceal::Rng rng(2);
  model.fit(d, rng);  // no split possible anywhere: all-leaf trees
  EXPECT_NEAR(model.predict(d.row(0)), 3.0, 1.0);
}

/// Two full fits per worker count must give bit-identical predictions,
/// batched and one by one.
void expect_thread_count_determinism(TreeMethod method) {
  ceal::Rng data_rng(123);
  const Dataset train = tuning_like(300, data_rng);
  const Dataset pool = tuning_like(500, data_rng);

  GbtParams params = method_params(method);
  params.subsample = 0.8;  // exercise the untrained-row prediction path

  std::vector<std::vector<double>> results;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ceal::set_global_thread_pool_threads(threads);
    for (int repeat = 0; repeat < 2; ++repeat) {
      GradientBoostedTrees model(params);
      ceal::Rng fit_rng(99);
      model.fit(train, fit_rng);
      std::vector<double> batched = model.predict_all(pool);
      for (std::size_t i = 0; i < pool.size(); ++i) {
        ASSERT_EQ(batched[i], model.predict(pool.row(i)));
      }
      results.push_back(std::move(batched));
    }
  }
  ceal::set_global_thread_pool_threads(0);
  for (std::size_t r = 1; r < results.size(); ++r) {
    for (std::size_t i = 0; i < results[0].size(); ++i) {
      ASSERT_EQ(results[0][i], results[r][i])
          << "row " << i << " differs between run 0 and run " << r;
    }
  }
}

TEST(TreeQuantized, ThreadCountDeterminism) {
  expect_thread_count_determinism(TreeMethod::kQuantized);
}

// Both remaining trainers. "Hist" is the histogram split finder,
// kQuantized, which legacy model files name `hist`.
class ThreadCountDeterminism : public ::testing::TestWithParam<TreeMethod> {};

TEST_P(ThreadCountDeterminism, FitAndBatchPredictAreBitwiseStable) {
  expect_thread_count_determinism(GetParam());
}

INSTANTIATE_TEST_SUITE_P(BothMethods, ThreadCountDeterminism,
                         ::testing::Values(TreeMethod::kExact,
                                           TreeMethod::kQuantized),
                         [](const auto& info) {
                           return info.param == TreeMethod::kExact ? "Exact"
                                                                   : "Hist";
                         });

}  // namespace
}  // namespace ceal::ml
