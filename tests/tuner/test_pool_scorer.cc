// Pool scoring (tuner/pool_scorer.h): the scorer's one joint matrix must
// hold each configuration's features, and both of its scoring passes
// must equal the per-configuration paths bitwise at any worker count.
#include "tuner/pool_scorer.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/parallel.h"
#include "core/rng.h"
#include "sim/workloads.h"
#include "tuner/low_fidelity.h"
#include "tuner/measured_pool.h"
#include "tuner/surrogate.h"

namespace ceal::tuner {
namespace {

class PoolScorerTest : public ::testing::Test {
 protected:
  PoolScorerTest()
      : wl_(sim::make_lv()),
        pool_(measure_pool(wl_.workflow, 300, 21)),
        comps_(measure_components(wl_.workflow, 100, 22)) {}

  static void TearDownTestSuite() {
    ceal::set_global_thread_pool_threads(0);
  }

  Surrogate fitted_surrogate() const {
    Surrogate surrogate;
    ceal::Rng rng(5);
    const std::span<const config::Configuration> train(pool_.configs.data(),
                                                       40);
    const std::span<const double> targets(
        pool_.measured(Objective::kExecTime).data(), 40);
    surrogate.fit(wl_.workflow.joint_space(), train, targets, rng);
    return surrogate;
  }

  LowFidelityModel low_fidelity() const {
    std::vector<std::vector<std::size_t>> indices(comps_.size());
    for (std::size_t j = 0; j < comps_.size(); ++j) {
      for (std::size_t s = 0; s < comps_[j].size(); ++s) {
        indices[j].push_back(s);
      }
    }
    ceal::Rng rng(9);
    auto components = std::make_shared<const ComponentModelSet>(
        wl_.workflow, Objective::kExecTime, comps_, indices, rng);
    return LowFidelityModel(wl_.workflow, Objective::kExecTime, components);
  }

  sim::Workload wl_;
  MeasuredPool pool_;
  std::vector<ComponentSamples> comps_;
};

TEST_F(PoolScorerTest, ScoresEqualPerConfigurationPathsAtAnyWorkerCount) {
  const auto& space = wl_.workflow.joint_space();
  const Surrogate surrogate = fitted_surrogate();
  const LowFidelityModel model = low_fidelity();
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ceal::set_global_thread_pool_threads(threads);
    const PoolScorer scorer(space, pool_.configs);
    ASSERT_EQ(scorer.size(), pool_.configs.size());
    const auto surr = scorer.surrogate_scores(surrogate);
    const auto low = scorer.low_fidelity_scores(model);
    ASSERT_EQ(surr.size(), pool_.configs.size());
    ASSERT_EQ(low.size(), pool_.configs.size());
    for (std::size_t i = 0; i < pool_.configs.size(); ++i) {
      const auto want = space.features(pool_.configs[i]);
      const auto row = scorer.features().row(i);
      ASSERT_EQ(row.size(), want.size());
      for (std::size_t k = 0; k < want.size(); ++k) {
        ASSERT_EQ(row[k], want[k]) << "row " << i;
      }
      ASSERT_EQ(surr[i], surrogate.predict(space, pool_.configs[i]))
          << threads << " workers, row " << i;
      ASSERT_EQ(low[i], model.score(pool_.configs[i]))
          << threads << " workers, row " << i;
    }
  }
}

}  // namespace
}  // namespace ceal::tuner
