// Pool featurization: the joint matrix must hold every component's
// features in its slice columns, scoring from it must agree bitwise with
// the per-configuration paths, and CEAL end-to-end must be independent
// of the worker count.
#include "tuner/pool_features.h"

#include <gtest/gtest.h>

#include "core/parallel.h"
#include "core/rng.h"
#include "sim/workloads.h"
#include "tuner/ceal.h"
#include "tuner/low_fidelity.h"
#include "tuner/measured_pool.h"
#include "tuner/surrogate.h"

namespace ceal::tuner {
namespace {

class PoolFeaturesTest : public ::testing::Test {
 protected:
  PoolFeaturesTest()
      : wl_(sim::make_lv()),
        pool_(measure_pool(wl_.workflow, 300, 21)),
        comps_(measure_components(wl_.workflow, 100, 22)) {}

  static void TearDownTestSuite() {
    ceal::set_global_thread_pool_threads(0);
  }

  sim::Workload wl_;
  MeasuredPool pool_;
  std::vector<ComponentSamples> comps_;
};

TEST_F(PoolFeaturesTest, RowsMatchDirectFeaturization) {
  const auto joint = featurize_joint(wl_.workflow.joint_space(), pool_.configs);
  ASSERT_EQ(joint.size(), pool_.configs.size());

  // The one-matrix design rests on this: component j's features of its
  // slice c_j are exactly the joint row's columns slice_range(j).
  const auto& composite = wl_.workflow.space();
  for (std::size_t i = 0; i < pool_.configs.size(); ++i) {
    const auto direct = wl_.workflow.joint_space().features(pool_.configs[i]);
    const auto row = joint.row(i);
    ASSERT_EQ(direct.size(), row.size());
    for (std::size_t k = 0; k < row.size(); ++k) {
      ASSERT_EQ(direct[k], row[k]);
    }
    for (std::size_t j = 0; j < composite.component_count(); ++j) {
      const auto sliced = composite.component_space(j).features(
          composite.slice(pool_.configs[i], j));
      const auto [begin, end] = composite.slice_range(j);
      ASSERT_EQ(sliced.size(), end - begin);
      for (std::size_t k = 0; k < sliced.size(); ++k) {
        ASSERT_EQ(sliced[k], row[begin + k]) << "component " << j;
      }
    }
  }
}

TEST_F(PoolFeaturesTest, SurrogateCachedPredictionsBitwiseEqual) {
  const auto& space = wl_.workflow.joint_space();
  Surrogate surrogate;
  ceal::Rng rng(5);
  const std::span<const config::Configuration> train(pool_.configs.data(),
                                                     40);
  const std::span<const double> targets(
      pool_.measured(Objective::kExecTime).data(), 40);
  surrogate.fit(space, train, targets, rng);

  const auto cached =
      surrogate.predict_many(featurize_joint(space, pool_.configs));
  ASSERT_EQ(cached.size(), pool_.configs.size());
  for (std::size_t i = 0; i < cached.size(); ++i) {
    ASSERT_EQ(cached[i], surrogate.predict(space, pool_.configs[i]));
    ASSERT_EQ(cached[i],
              surrogate.predict_features(space.features(pool_.configs[i])));
  }
}

TEST_F(PoolFeaturesTest, LowFidelityCachedScoresBitwiseEqual) {
  std::vector<std::vector<std::size_t>> indices(comps_.size());
  for (std::size_t j = 0; j < comps_.size(); ++j) {
    for (std::size_t s = 0; s < comps_[j].size(); ++s) {
      indices[j].push_back(s);
    }
  }
  ceal::Rng rng(9);
  auto components = std::make_shared<const ComponentModelSet>(
      wl_.workflow, Objective::kExecTime, comps_, indices, rng);
  const LowFidelityModel model(wl_.workflow, Objective::kExecTime,
                               components);

  // Each component model reads its column window of the joint matrix;
  // score() slices and featurizes c_j per row.
  const auto cached = model.score_many(
      featurize_joint(wl_.workflow.joint_space(), pool_.configs));
  ASSERT_EQ(cached.size(), pool_.configs.size());
  for (std::size_t i = 0; i < cached.size(); ++i) {
    ASSERT_EQ(cached[i], model.score(pool_.configs[i]));
  }
}

TEST_F(PoolFeaturesTest, CealResultIndependentOfThreadCount) {
  TuningProblem problem{&wl_, Objective::kExecTime, &pool_, &comps_, true, {}};
  Ceal ceal;
  std::vector<TuneResult> results;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ceal::set_global_thread_pool_threads(threads);
    ceal::Rng rng(31);
    results.push_back(ceal.tune(problem, 25, rng));
  }
  ASSERT_EQ(results[0].best_predicted_index, results[1].best_predicted_index);
  ASSERT_EQ(results[0].measured_indices, results[1].measured_indices);
  ASSERT_EQ(results[0].model_scores.size(), results[1].model_scores.size());
  for (std::size_t i = 0; i < results[0].model_scores.size(); ++i) {
    ASSERT_EQ(results[0].model_scores[i], results[1].model_scores[i]);
  }
}

}  // namespace
}  // namespace ceal::tuner
