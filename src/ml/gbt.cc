#include "ml/gbt.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "core/error.h"
#include "core/stats.h"
#include "ml/compiled_forest.h"
#include "ml/quantized.h"

namespace ceal::ml {

GradientBoostedTrees::GradientBoostedTrees(GbtParams params)
    : params_(params) {
  CEAL_EXPECT(params_.n_rounds >= 1);
  CEAL_EXPECT(params_.learning_rate > 0.0 && params_.learning_rate <= 1.0);
  CEAL_EXPECT(params_.subsample > 0.0 && params_.subsample <= 1.0);
}

GbtParams GradientBoostedTrees::surrogate_defaults() {
  GbtParams p;
  p.n_rounds = 150;
  p.learning_rate = 0.10;
  p.subsample = 1.0;
  p.tree.max_depth = 5;
  // Tiny sample budgets (tens of runs) often contain a single extreme
  // outlier; leaves must be allowed to isolate it or its residual bleeds
  // into the predictions of good configurations.
  p.tree.min_samples_leaf = 1;
  p.tree.min_child_weight = 0.25;
  p.tree.lambda = 1.0;
  p.tree.colsample = 1.0;
  return p;
}

void GradientBoostedTrees::fit(const Dataset& data, ceal::Rng& rng) {
  CEAL_EXPECT_MSG(!data.empty(), "cannot fit on an empty dataset");
  // Hard guard: a single NaN target poisons every gradient (and a NaN
  // feature corrupts split search), so reject them up front instead of
  // training a silently broken model.
  for (std::size_t i = 0; i < data.size(); ++i) {
    CEAL_EXPECT_MSG(std::isfinite(data.target(i)),
                    "non-finite training target");
    for (const double f : data.row(i)) {
      CEAL_EXPECT_MSG(std::isfinite(f), "non-finite training feature");
    }
  }
  trees_.clear();
  compiled_.reset();
  base_score_ = ceal::mean(data.targets());

  const std::size_t n = data.size();
  std::vector<double> pred(n, base_score_);
  std::vector<double> grad(n), hess(n, 1.0);

  const auto rows_per_round = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround(params_.subsample * static_cast<double>(n))));

  // Per-round predictions update incrementally: the tree builder reports
  // the fitted leaf weight of every row it trained on (identical to
  // re-descending the tree for that row), so only rows left out by
  // subsampling need a real descent.
  constexpr double kUntrained = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> leaf_values(n);

  // Feature binning depends only on the data, so the quantized trainer
  // bins once here and every round reuses the matrix, as it does the
  // tree builder's scratch (histogram buffers, reciprocal table). The
  // exact trainer instead replays recurring sort chains (every round's
  // root when all rows train) from a bounded per-fit memo.
  std::optional<QuantizedMatrix> quantized;
  std::optional<QuantizedWorkspace> quantized_ws;
  std::optional<SortChainMemo> sort_memo;
  TreeFitState fit_state;
  if (params_.tree.method == TreeMethod::kQuantized) {
    fit_state.quantized = &quantized.emplace(data, params_.tree.max_bins);
    fit_state.quantized_ws = &quantized_ws.emplace();
  } else {
    fit_state.sort_memo = &sort_memo.emplace();
  }

  trees_.reserve(params_.n_rounds);
  for (std::size_t round = 0; round < params_.n_rounds; ++round) {
    for (std::size_t i = 0; i < n; ++i) grad[i] = pred[i] - data.target(i);

    std::vector<std::size_t> rows;
    if (rows_per_round == n) {
      rows.resize(n);
      for (std::size_t i = 0; i < n; ++i) rows[i] = i;
    } else {
      rows = rng.sample_without_replacement(n, rows_per_round);
    }

    RegressionTree tree(params_.tree);
    if (rows_per_round != n) {
      std::fill(leaf_values.begin(), leaf_values.end(), kUntrained);
    }
    tree.fit_gradients(data, rows, grad, hess, rng, &leaf_values,
                       &fit_state);
    for (std::size_t i = 0; i < n; ++i) {
      const double value = std::isnan(leaf_values[i])
                               ? tree.predict(data.row(i))
                               : leaf_values[i];
      pred[i] += params_.learning_rate * value;
    }
    trees_.push_back(std::move(tree));
  }
  fit_tally_ = fit_state.tally;
  fitted_ = true;
  compiled_ =
      std::make_shared<const CompiledForest>(CompiledForest::compile(*this));
}

const std::vector<RegressionTree>& GradientBoostedTrees::trees() const {
  CEAL_EXPECT_MSG(fitted_, "trees() before fit()");
  return trees_;
}

GradientBoostedTrees GradientBoostedTrees::from_parts(
    GbtParams params, double base_score,
    std::vector<RegressionTree> trees) {
  CEAL_EXPECT_MSG(!trees.empty(), "model needs at least one tree");
  for (const auto& tree : trees) {
    CEAL_EXPECT_MSG(tree.is_fitted(), "all member trees must be fitted");
  }
  GradientBoostedTrees model(params);
  model.base_score_ = base_score;
  model.trees_ = std::move(trees);
  model.fitted_ = true;
  model.compiled_ =
      std::make_shared<const CompiledForest>(CompiledForest::compile(model));
  return model;
}

double GradientBoostedTrees::predict(std::span<const double> features) const {
  CEAL_EXPECT_MSG(fitted_, "predict() before fit()");
  return compiled_->predict(features);
}

std::vector<double> GradientBoostedTrees::predict_matrix(
    const FeatureMatrix& rows, std::size_t first_column) const {
  CEAL_EXPECT_MSG(fitted_, "predict_matrix() before fit()");
  return compiled_->predict_matrix(rows, first_column);
}

}  // namespace ceal::ml
