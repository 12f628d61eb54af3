#include "tuner/tuning_util.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/telemetry.h"
#include "sim/workloads.h"
#include "tests/ml/feature_rows.h"
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
  fit_on_measured(model, col, rng,
                  featurize_joint(wl_.workflow.joint_space(), pool_.configs));
  EXPECT_TRUE(model.is_fitted());
}

// fit_on_measured trains on pool rows only. It must grow the very trees
// that fitting the successful configurations themselves grows, with both
// trainers, when failed attempts leave gaps in ok_indices().
TEST_F(TuningUtilTest, FitOnMeasuredPoolRowsMatchesFeaturizedConfigs) {
  TuningProblem faulty = problem_;
  faulty.measurement.faults.fail_prob = 0.4;
  ceal::Rng fault_rng(6);
  Collector col(faulty, 30, &fault_rng);
  for (std::size_t i = 0; i < 30; ++i) col.try_measure(i);
  const auto& ok = col.ok_indices();
  ASSERT_GT(col.failed_count(), 0u);
  ASSERT_GE(ok.size(), 10u);

  const auto& space = wl_.workflow.joint_space();
  const ml::FeatureMatrix rows = featurize_joint(space, pool_.configs);
  std::vector<config::Configuration> ok_configs;
  for (const std::size_t i : ok) ok_configs.push_back(pool_.configs[i]);

  for (const ml::TreeMethod method :
       {ml::TreeMethod::kExact, ml::TreeMethod::kQuantized}) {
    ml::GbtParams params = ml::GradientBoostedTrees::surrogate_defaults();
    params.tree.method = method;
    Surrogate from_rows(params), from_configs(params);
    ceal::Rng r1(3), r2(3);
    fit_on_measured(from_rows, col, r1, rows);
    from_configs.fit(space, ok_configs, col.ok_values(), r2);

    const auto& want = from_configs.model().trees();
    const auto& got = from_rows.model().trees();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t t = 0; t < want.size(); ++t) {
      const auto want_nodes = want[t].export_nodes();
      const auto got_nodes = got[t].export_nodes();
      ASSERT_EQ(got_nodes.size(), want_nodes.size()) << "tree " << t;
      for (std::size_t n = 0; n < want_nodes.size(); ++n) {
        const ml::TreeNodeData& a = got_nodes[n];
        const ml::TreeNodeData& b = want_nodes[n];
        ASSERT_EQ(a.feature, b.feature) << "tree " << t << " node " << n;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(a.threshold),
                  std::bit_cast<std::uint64_t>(b.threshold));
        ASSERT_EQ(a.left, b.left);
        ASSERT_EQ(a.right, b.right);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(a.weight),
                  std::bit_cast<std::uint64_t>(b.weight));
      }
    }
  }
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

// ---------------------------------------------------------------------
// What the tuners report about their models. The expected counters were
// recorded when GradientBoostedTrees counted into a Telemetry itself
// (the GbtTelemetry cases of tests/ml/test_gbt.cc pin the same fits'
// tallies): a reported fit keeps the names and values, and creates no
// counter for a zero total.

using Counters = std::map<std::string, std::uint64_t, std::less<>>;

Counters reported_fit(const ml::Dataset& train, const ml::GbtParams& params,
                      ceal::Rng& rng) {
  ml::GradientBoostedTrees model(params);
  model.fit(train, rng);
  telemetry::Telemetry tel;
  report_gbt_fit(&tel, model);
  report_gbt_fit(nullptr, model);  // no registry: nothing to do
  return tel.counters();
}

TEST(ReportGbtFit, ExactTieHeavyFit) {
  ceal::Rng rng(41);
  const ml::Dataset train = ml::tie_heavy_data(200, rng);
  ml::GbtParams params = ml::GradientBoostedTrees::surrogate_defaults();
  params.n_rounds = 40;
  EXPECT_EQ(reported_fit(train, params, rng),
            (Counters{{"gbt.fits", 1},
                      {"gbt.rounds", 40},
                      {"tree.fits", 40},
                      {"tree.leaves", 988},
                      {"tree.nodes", 1936},
                      {"tree.sort_memo.hits", 822},
                      {"tree.sort_memo.misses", 347},
                      {"tree.split_search.features", 5845},
                      {"tree.split_search.nodes", 1169}}));
}

TEST(ReportGbtFit, ExactSubsampledFitOutgrowsItsMemo) {
  ceal::Rng rng(42);
  const ml::Dataset train = ml::tie_heavy_data(1500, rng);
  ml::GbtParams params = ml::GradientBoostedTrees::surrogate_defaults();
  params.n_rounds = 20;
  params.subsample = 0.7;
  EXPECT_EQ(reported_fit(train, params, rng),
            (Counters{{"gbt.fits", 1},
                      {"gbt.rounds", 20},
                      {"tree.fits", 20},
                      {"tree.leaves", 471},
                      {"tree.nodes", 922},
                      {"tree.sort_memo.clears", 8},
                      {"tree.sort_memo.misses", 536},
                      {"tree.split_search.features", 2680},
                      {"tree.split_search.nodes", 536}}));
}

TEST(ReportGbtFit, QuantizedFit) {
  ceal::Rng rng(43);
  const ml::Dataset train = ml::tie_heavy_data(300, rng);
  ml::GbtParams params = ml::GradientBoostedTrees::surrogate_defaults();
  params.n_rounds = 30;
  params.subsample = 0.8;
  params.tree.method = ml::TreeMethod::kQuantized;
  EXPECT_EQ(reported_fit(train, params, rng),
            (Counters{{"gbt.fits", 1},
                      {"gbt.rounds", 30},
                      {"tree.fits", 30},
                      {"tree.leaves", 681},
                      {"tree.nodes", 1332},
                      {"tree.quantized_cache.hit", 30},
                      {"tree.split_search.features", 3950},
                      {"tree.split_search.nodes", 790}}));
}

// fit_on_measured reports its fit once, inside its one span: the model
// records no span of its own.
TEST_F(TuningUtilTest, FitOnMeasuredReportsItsFitOnce) {
  telemetry::Telemetry tel;
  TuningProblem traced = problem_;
  traced.telemetry = &tel;
  Collector col(traced, 10);
  ceal::Rng rng(2);
  for (std::size_t i = 0; i < 10; ++i) col.measure(i);
  Surrogate model;
  fit_on_measured(model, col, rng,
                  featurize_joint(wl_.workflow.joint_space(), pool_.configs));

  telemetry::Telemetry expected;
  expected.count("surrogate.fits");
  report_gbt_fit(&expected, model.model());
  Counters model_counters;  // leaves out the collector's measure.*
  for (const auto& [name, value] : tel.counters()) {
    if (name.starts_with("gbt.") || name.starts_with("tree.") ||
        name.starts_with("surrogate.")) {
      model_counters.emplace(name, value);
    }
  }
  EXPECT_EQ(model_counters, expected.counters());
  EXPECT_EQ(tel.counter("gbt.rounds"), model.model().tree_count());
  EXPECT_EQ(tel.histogram_stats("timing.surrogate.fit_s").count, 1u);
  for (const auto& [name, stats] : tel.histograms()) {
    EXPECT_FALSE(name.starts_with("timing.gbt.")) << name;
  }
}

// Batch inference reports under the gbt.predict names only, through the
// tuner-side predict_batch, and returns predict_many's values.
TEST(PredictBatch, CountsOneBatchOfItsRows) {
  ceal::Rng rng(4);
  const ml::Dataset train = ml::tie_heavy_data(150, rng);
  const ml::Dataset pool = ml::tie_heavy_data(300, rng);
  std::vector<std::size_t> train_rows(train.size());
  for (std::size_t i = 0; i < train_rows.size(); ++i) train_rows[i] = i;
  Surrogate surrogate;
  surrogate.fit(ml::rows_of(train), train_rows, train.targets(), rng);
  const ml::FeatureMatrix rows = ml::rows_of(pool);
  const std::vector<double> want = surrogate.predict_many(rows);

  telemetry::Telemetry tel;
  const std::vector<double> got = predict_batch(&tel, surrogate, rows);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << "row " << i;
  }
  EXPECT_EQ(tel.counters(), (Counters{{"gbt.predict.batches", 1},
                                      {"gbt.predict.rows", pool.size()}}));
  EXPECT_TRUE(tel.histograms().empty());
  EXPECT_EQ(predict_batch(nullptr, surrogate, rows), want);
}

}  // namespace
}  // namespace ceal::tuner
