#include "tuner/low_fidelity.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/error.h"
#include "core/stats.h"
#include "sim/workloads.h"
#include "tuner/pool_features.h"

namespace ceal::tuner {
namespace {

class LowFidelityTest : public ::testing::Test {
 protected:
  LowFidelityTest()
      : wl_(sim::make_lv()),
        pool_(measure_pool(wl_.workflow, 300, 1)),
        comps_(measure_components(wl_.workflow, 200, 2)) {
    all_indices_.resize(comps_.size());
    for (std::size_t j = 0; j < comps_.size(); ++j) {
      all_indices_[j].resize(comps_[j].size());
      for (std::size_t i = 0; i < comps_[j].size(); ++i) {
        all_indices_[j][i] = i;
      }
    }
  }

  std::shared_ptr<const ComponentModelSet> models(Objective obj) {
    ceal::Rng rng(3);
    return std::make_shared<const ComponentModelSet>(wl_.workflow, obj,
                                                     comps_, all_indices_,
                                                     rng);
  }

  sim::Workload wl_;
  MeasuredPool pool_;
  std::vector<ComponentSamples> comps_;
  std::vector<std::vector<std::size_t>> all_indices_;
};

TEST_F(LowFidelityTest, ComponentModelsPredictSoloTimesAccurately) {
  const auto cm = models(Objective::kExecTime);
  std::vector<double> pred, actual;
  for (std::size_t i = 0; i < comps_[0].size(); ++i) {
    pred.push_back(cm->predict(0, comps_[0].configs[i]));
    actual.push_back(comps_[0].exec_s[i]);
  }
  EXPECT_LT(ceal::mdape_percent(actual, pred), 15.0);
}

TEST_F(LowFidelityTest, ExecScoreIsMaxOfComponentPredictions) {
  const auto cm = models(Objective::kExecTime);
  const LowFidelityModel lf(wl_.workflow, Objective::kExecTime, cm);
  const auto& joint = pool_.configs[0];
  const double expected = std::max(
      cm->predict(0, wl_.workflow.space().slice(joint, 0)),
      cm->predict(1, wl_.workflow.space().slice(joint, 1)));
  EXPECT_DOUBLE_EQ(lf.score(joint), expected);
}

TEST_F(LowFidelityTest, CompScoreIsSumOfComponentPredictions) {
  const auto cm = models(Objective::kComputerTime);
  const LowFidelityModel lf(wl_.workflow, Objective::kComputerTime, cm);
  const auto& joint = pool_.configs[1];
  const double expected =
      cm->predict(0, wl_.workflow.space().slice(joint, 0)) +
      cm->predict(1, wl_.workflow.space().slice(joint, 1));
  EXPECT_DOUBLE_EQ(lf.score(joint), expected);
}

TEST_F(LowFidelityTest, ScoresRankCoupledPerformanceWell) {
  // The whole premise of Phase 1 (§4): the combined component models
  // rank coupled configurations far better than chance.
  const auto cm = models(Objective::kExecTime);
  const LowFidelityModel lf(wl_.workflow, Objective::kExecTime, cm);
  const auto scores = lf.score_many(
      featurize_joint(wl_.workflow.joint_space(), pool_.configs));
  EXPECT_GT(ceal::spearman(scores, pool_.exec_s), 0.8);
}

TEST_F(LowFidelityTest, ScoreManyMatchesScore) {
  // Computer time sums every component, so a component reading the
  // wrong columns cannot hide behind another component's max.
  const std::span<const config::Configuration> sub(pool_.configs.data(), 50);
  const auto joint = featurize_joint(wl_.workflow.joint_space(), sub);
  for (const auto obj : {Objective::kExecTime, Objective::kComputerTime}) {
    const LowFidelityModel lf(wl_.workflow, obj, models(obj));
    const auto scores = lf.score_many(joint);
    ASSERT_EQ(scores.size(), sub.size());
    for (std::size_t i = 0; i < sub.size(); ++i) {
      EXPECT_EQ(scores[i], lf.score(sub[i]));  // bitwise
    }
  }
}

TEST_F(LowFidelityTest, EmptySampleIndexListRejected) {
  ceal::Rng rng(4);
  std::vector<std::vector<std::size_t>> empty_indices(comps_.size());
  EXPECT_THROW(ComponentModelSet(wl_.workflow, Objective::kExecTime, comps_,
                                 empty_indices, rng),
               ceal::PreconditionError);
}

TEST_F(LowFidelityTest, SubsetOfSamplesStillWorks) {
  ceal::Rng rng(5);
  std::vector<std::vector<std::size_t>> few(comps_.size());
  for (auto& v : few) v = {0, 1, 2, 3, 4, 5, 6, 7};
  const ComponentModelSet cm(wl_.workflow, Objective::kExecTime, comps_, few,
                             rng);
  EXPECT_EQ(cm.component_count(), 2u);
  EXPECT_GT(cm.predict(0, comps_[0].configs[0]), 0.0);
}

}  // namespace
}  // namespace ceal::tuner
