#include "tuner/measured_pool.h"

#include <gtest/gtest.h>

#include <set>

#include "core/error.h"
#include "sim/workloads.h"

namespace ceal::tuner {
namespace {

class MeasuredPoolTest : public ::testing::Test {
 protected:
  MeasuredPoolTest() : wl_(sim::make_lv()) {}

  sim::Workload wl_;
};

TEST_F(MeasuredPoolTest, PoolHasRequestedSizeAndValidConfigs) {
  const auto pool = measure_pool(wl_.workflow, 100, 1);
  EXPECT_EQ(pool.size(), 100u);
  EXPECT_EQ(pool.exec_s.size(), 100u);
  EXPECT_EQ(pool.comp_ch.size(), 100u);
  EXPECT_EQ(pool.true_exec_s.size(), 100u);
  for (const auto& c : pool.configs) {
    EXPECT_TRUE(wl_.workflow.joint_space().is_valid(c));
  }
}

TEST(MeasuredPoolSpace, RequestBeyondTheValidSpaceFailsInsteadOfLooping) {
  // One component with four configurations: four distinct rows exist,
  // a fifth does not.
  sim::ParamRoles roles;
  roles.procs = 0;
  std::vector<sim::ComponentApp> apps;
  apps.emplace_back("a", config::ConfigSpace({config::Parameter::range(
                             "procs", 1, 4)}),
                    roles, sim::ScalingParams{}, sim::IoProfile{}, 0.0);
  const sim::InSituWorkflow tiny("tiny", sim::MachineSpec{}, std::move(apps),
                                 {});
  const auto pool = measure_pool(tiny, 4, 1);
  EXPECT_EQ(std::set<config::Configuration>(pool.configs.begin(),
                                            pool.configs.end())
                .size(),
            4u);
  EXPECT_THROW(measure_pool(tiny, 5, 1), PreconditionError);
}

TEST_F(MeasuredPoolTest, SameSeedSamePool) {
  const auto a = measure_pool(wl_.workflow, 50, 7);
  const auto b = measure_pool(wl_.workflow, 50, 7);
  EXPECT_EQ(a.configs, b.configs);
  EXPECT_EQ(a.exec_s, b.exec_s);
}

TEST_F(MeasuredPoolTest, DifferentSeedsDifferentPools) {
  const auto a = measure_pool(wl_.workflow, 50, 7);
  const auto b = measure_pool(wl_.workflow, 50, 8);
  EXPECT_NE(a.configs, b.configs);
}

TEST_F(MeasuredPoolTest, MeasurementsArePositiveAndNearTruth) {
  const auto pool = measure_pool(wl_.workflow, 100, 2);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    EXPECT_GT(pool.exec_s[i], 0.0);
    EXPECT_GT(pool.comp_ch[i], 0.0);
    // 3% lognormal noise keeps measurements within ~25% of truth.
    EXPECT_NEAR(pool.exec_s[i], pool.true_exec_s[i],
                pool.true_exec_s[i] * 0.25);
  }
}

TEST_F(MeasuredPoolTest, BestIndexIsArgmin) {
  const auto pool = measure_pool(wl_.workflow, 200, 3);
  const auto best = pool.best_index(Objective::kExecTime);
  for (const double v : pool.exec_s) {
    EXPECT_LE(pool.exec_s[best], v);
  }
  const auto best_truth = pool.best_truth_index(Objective::kComputerTime);
  for (const double v : pool.true_comp_ch) {
    EXPECT_LE(pool.true_comp_ch[best_truth], v);
  }
}

TEST_F(MeasuredPoolTest, ObjectiveSelectsMetricVector) {
  const auto pool = measure_pool(wl_.workflow, 10, 4);
  EXPECT_EQ(&pool.measured(Objective::kExecTime), &pool.exec_s);
  EXPECT_EQ(&pool.measured(Objective::kComputerTime), &pool.comp_ch);
  EXPECT_EQ(&pool.truth(Objective::kExecTime), &pool.true_exec_s);
}

TEST_F(MeasuredPoolTest, ComponentSamplesPerComponent) {
  const auto comps = measure_components(wl_.workflow, 40, 5);
  ASSERT_EQ(comps.size(), 2u);
  EXPECT_EQ(comps[0].size(), 40u);
  EXPECT_EQ(comps[1].size(), 40u);
  for (std::size_t j = 0; j < comps.size(); ++j) {
    for (const auto& c : comps[j].configs) {
      EXPECT_TRUE(wl_.workflow.app(j).space().is_valid(c));
    }
  }
}

TEST_F(MeasuredPoolTest, UnconfigurableComponentsGetOneSample) {
  const auto gp = sim::make_gp();
  const auto comps = measure_components(gp.workflow, 25, 6);
  ASSERT_EQ(comps.size(), 4u);
  EXPECT_EQ(comps[0].size(), 25u);  // gray_scott
  EXPECT_EQ(comps[1].size(), 25u);  // pdf_calc
  EXPECT_EQ(comps[2].size(), 1u);   // g_plot
  EXPECT_EQ(comps[3].size(), 1u);   // p_plot
}

}  // namespace
}  // namespace ceal::tuner
