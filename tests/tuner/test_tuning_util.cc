#include "tuner/tuning_util.h"

#include <gtest/gtest.h>

#include <set>

#include "sim/workloads.h"
#include "tuner/low_fidelity.h"
#include "tuner/pool_features.h"

namespace ceal::tuner {
namespace {

class TuningUtilTest : public ::testing::Test {
 protected:
  TuningUtilTest()
      : wl_(sim::make_lv()),
        pool_(measure_pool(wl_.workflow, 50, 1)),
        comps_(measure_components(wl_.workflow, 10, 2)),
        problem_{&wl_, Objective::kExecTime, &pool_, &comps_, false, {}} {}

  sim::Workload wl_;
  MeasuredPool pool_;
  std::vector<ComponentSamples> comps_;
  TuningProblem problem_;
};

TEST_F(TuningUtilTest, TopUnmeasuredSkipsMeasured) {
  Collector col(problem_, 10);
  std::vector<double> scores(pool_.size());
  for (std::size_t i = 0; i < scores.size(); ++i) {
    scores[i] = static_cast<double>(i);  // index 0 is best
  }
  col.measure(0);
  col.measure(1);
  const auto top = top_unmeasured(scores, col, 3);
  const std::vector<std::size_t> expected{2, 3, 4};
  EXPECT_EQ(top, expected);
}

TEST_F(TuningUtilTest, TopUnmeasuredReturnsFewerWhenExhausted) {
  Collector col(problem_, 50);
  std::vector<double> scores(pool_.size(), 1.0);
  for (std::size_t i = 0; i < 48; ++i) col.measure(i);
  const auto top = top_unmeasured(scores, col, 5);
  EXPECT_EQ(top.size(), 2u);
}

TEST_F(TuningUtilTest, RandomUnmeasuredIsDistinctAndUnmeasured) {
  Collector col(problem_, 10);
  col.measure(3);
  ceal::Rng rng(1);
  const auto picks = random_unmeasured(col, 10, rng);
  std::set<std::size_t> seen(picks.begin(), picks.end());
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_EQ(seen.count(3), 0u);
}

TEST_F(TuningUtilTest, MeasureBatchStopsAtBudget) {
  Collector col(problem_, 3);
  const std::vector<std::size_t> batch{0, 1, 2, 3, 4};
  const std::size_t measured = measure_batch(col, batch);
  EXPECT_EQ(measured, 3u);
  EXPECT_EQ(col.remaining(), 0u);
}

TEST_F(TuningUtilTest, FitOnMeasuredTrainsOnCollectedData) {
  Collector col(problem_, 10);
  ceal::Rng rng(2);
  for (std::size_t i = 0; i < 10; ++i) col.measure(i);
  Surrogate model;
  fit_on_measured(model, col, rng);
  EXPECT_TRUE(model.is_fitted());
}

TEST_F(TuningUtilTest, FitOnMeasuredPoolRowsMatchesFeaturizedConfigs) {
  Collector col(problem_, 10);
  for (std::size_t i = 0; i < 10; ++i) col.measure(i * 3);
  const ml::FeatureMatrix rows =
      featurize_joint(wl_.workflow.joint_space(), pool_.configs);
  Surrogate from_configs, from_rows;
  ceal::Rng r1(3), r2(3);
  fit_on_measured(from_configs, col, r1);
  fit_on_measured(from_rows, col, r2, &rows);
  EXPECT_EQ(from_rows.predict_many(rows), from_configs.predict_many(rows));
}

TEST_F(TuningUtilTest, ComponentModelsChargeRoundsUnlessHistorical) {
  Collector charged(problem_, 10);
  ceal::Rng rng(4);
  const auto models = train_component_models(charged, 3, rng);
  EXPECT_EQ(models->component_count(), wl_.workflow.component_count());
  EXPECT_EQ(charged.runs_used(), 3u);

  TuningProblem history = problem_;
  history.components_are_history = true;
  Collector free(history, 10);
  train_component_models(free, 3, rng);
  EXPECT_EQ(free.runs_used(), 0u);
  EXPECT_EQ(free.component_indices().front().size(), comps_.front().size());
}

TEST_F(TuningUtilTest, FinalizeOverridesMeasuredScoresWithObservations) {
  Collector col(problem_, 2);
  col.measure(4);
  col.measure(9);
  std::vector<double> scores(pool_.size(), 1000.0);
  const auto result = finalize_result(col, std::move(scores));
  EXPECT_DOUBLE_EQ(result.model_scores[4], pool_.exec_s[4]);
  EXPECT_DOUBLE_EQ(result.model_scores[9], pool_.exec_s[9]);
  EXPECT_DOUBLE_EQ(result.model_scores[0], 1000.0);
}

TEST_F(TuningUtilTest, FinalizePicksArgminAndBestMeasured) {
  Collector col(problem_, 2);
  col.measure(4);
  col.measure(9);
  std::vector<double> scores(pool_.size(), 1000.0);
  scores[7] = 0.0001;  // unmeasured model favourite
  const auto result = finalize_result(col, std::move(scores));
  EXPECT_EQ(result.best_predicted_index, 7u);
  const std::size_t expect_best_measured =
      pool_.exec_s[4] <= pool_.exec_s[9] ? 4u : 9u;
  EXPECT_EQ(result.best_measured_index, expect_best_measured);
  EXPECT_EQ(result.runs_used, 2u);
  EXPECT_GT(result.cost_exec_s, 0.0);
}

}  // namespace
}  // namespace ceal::tuner
