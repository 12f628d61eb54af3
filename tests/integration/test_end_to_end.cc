// End-to-end integration tests: build a workflow, measure pools, run the
// complete bootstrapped auto-tuning pipeline, and check the paper's
// qualitative claims hold on this build.
#include <gtest/gtest.h>

#include <memory>

#include "ml/metrics.h"
#include "sim/workloads.h"
#include "tuner/active_learning.h"
#include "tuner/ceal.h"
#include "tuner/evaluation.h"
#include "tuner/low_fidelity.h"
#include "tuner/pool_features.h"
#include "tuner/random_search.h"

namespace ceal::tuner {
namespace {

struct Env {
  sim::Workload wl = sim::make_lv();
  MeasuredPool pool;
  std::vector<ComponentSamples> comps;

  Env()
      : pool(measure_pool(wl.workflow, 600, 41)),
        comps(measure_components(wl.workflow, 200, 42)) {}
};

Env& env() {
  static Env e;
  return e;
}

TEST(EndToEnd, LowFidelityModelBeatsRandomOrderingAtRecall) {
  // Fig. 4's claim: the ACM combination ranks configurations far better
  // than a random ordering.
  auto& e = env();
  ceal::Rng rng(1);
  std::vector<std::vector<std::size_t>> all(e.comps.size());
  for (std::size_t j = 0; j < e.comps.size(); ++j) {
    all[j].resize(e.comps[j].size());
    for (std::size_t i = 0; i < e.comps[j].size(); ++i) all[j][i] = i;
  }
  auto cm = std::make_shared<const ComponentModelSet>(
      e.wl.workflow, Objective::kExecTime, e.comps, all, rng);
  const LowFidelityModel lf(e.wl.workflow, Objective::kExecTime, cm);
  const auto scores = lf.score_many(
      featurize_joint(e.wl.workflow.joint_space(), e.pool.configs));

  // Random ordering recall for top-25 of 600 is ~4% in expectation; the
  // low-fidelity model must do far better.
  const double recall25 =
      ml::recall_score_percent(25, scores, e.pool.exec_s);
  EXPECT_GT(recall25, 20.0);
}

TEST(EndToEnd, CealBeatsRandomSamplingAtEqualBudget) {
  auto& e = env();
  TuningProblem prob{&e.wl, Objective::kExecTime, &e.pool, &e.comps, false, {}};
  Ceal ceal;
  RandomSearch rs;
  const auto s_ceal = evaluate(prob, ceal, 50, 12, 5);
  const auto s_rs = evaluate(prob, rs, 50, 12, 5);
  EXPECT_LT(s_ceal.mean_norm_perf, s_rs.mean_norm_perf);
}

TEST(EndToEnd, HistoriesImproveCeal) {
  // Fig. 9's claim: historical component measurements let CEAL spend the
  // whole budget on workflow runs and find better configurations.
  auto& e = env();
  TuningProblem no_hist{&e.wl, Objective::kComputerTime, &e.pool, &e.comps,
                        false, {}};
  TuningProblem hist = no_hist;
  hist.components_are_history = true;
  Ceal ceal;
  const auto s_no = evaluate(no_hist, ceal, 25, 12, 6);
  const auto s_yes = evaluate(hist, ceal, 25, 12, 6);
  EXPECT_LE(s_yes.mean_norm_perf, s_no.mean_norm_perf * 1.05);
}

TEST(EndToEnd, CealTopConfigPredictionsAreAccurate) {
  // Fig. 6's claim: CEAL's surrogate is accurate for the top
  // configurations even when its global MdAPE is unremarkable.
  auto& e = env();
  TuningProblem prob{&e.wl, Objective::kExecTime, &e.pool, &e.comps, true, {}};
  Ceal ceal;
  const auto s = evaluate(prob, ceal, 50, 12, 7);
  EXPECT_LT(s.mean_mdape_top2, 60.0);
}

TEST(EndToEnd, WholePipelineRunsOnEveryWorkflow) {
  for (auto& wl : sim::make_all_workloads()) {
    const auto pool = measure_pool(wl.workflow, 200, 51);
    const auto comps = measure_components(wl.workflow, 40, 52);
    for (const auto obj :
         {Objective::kExecTime, Objective::kComputerTime}) {
      TuningProblem prob{&wl, obj, &pool, &comps, false, {}};
      Ceal ceal;
      ceal::Rng rng(8);
      const auto result = ceal.tune(prob, 20, rng);
      EXPECT_EQ(result.model_scores.size(), pool.size())
          << wl.workflow.name() << " " << objective_name(obj);
      EXPECT_LE(result.runs_used, 20u);
    }
  }
}

TEST(EndToEnd, RecommendedConfigIsNearPoolOptimum) {
  auto& e = env();
  TuningProblem prob{&e.wl, Objective::kExecTime, &e.pool, &e.comps, true, {}};
  Ceal ceal;
  const auto s = evaluate(prob, ceal, 50, 12, 9);
  // Within 25% of the pool optimum on average (paper: within ~5-15%).
  EXPECT_LT(s.mean_norm_perf, 1.25);
}

}  // namespace
}  // namespace ceal::tuner
