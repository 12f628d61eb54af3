// Slow stress sweep (ctest -L slow): every searcher against a grid of
// failure rates and retry policies, checking the invariants that the
// cheap tier only spot-checks — budget never overruns, rankings stay
// finite, and the measured trace always accounts for every status.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "sim/workloads.h"
#include "tuner/active_learning.h"
#include "tuner/alph.h"
#include "tuner/bayes_opt.h"
#include "tuner/ceal.h"
#include "tuner/geist.h"
#include "tuner/random_search.h"

namespace ceal::tuner {
namespace {

TEST(FaultStress, EverySearcherOnEveryFaultGrid) {
  sim::Workload wl = sim::make_lv();
  const MeasuredPool pool = measure_pool(wl.workflow, 300, 71);
  const auto comps = measure_components(wl.workflow, 90, 72);

  RandomSearch rs;
  ActiveLearning al;
  Ceal ceal;
  BayesOpt bo;
  Geist geist;
  Alph alph;
  BayesOptParams bo_ceal_params;
  bo_ceal_params.bootstrap_with_low_fidelity = true;
  BayesOpt bo_ceal(bo_ceal_params);
  const AutoTuner* algos[] = {&rs, &al, &ceal, &bo, &geist, &alph, &bo_ceal};

  std::uint64_t seed = 1;
  for (const double rate : {0.1, 0.3, 0.5}) {
    for (const std::size_t attempts : {std::size_t{1}, std::size_t{3}}) {
      TuningProblem prob{&wl, Objective::kExecTime, &pool, &comps, false,
                         {}};
      prob.measurement.faults.fail_prob = rate;
      prob.measurement.faults.outlier_prob = 0.05;
      prob.measurement.max_attempts = attempts;
      for (const AutoTuner* algo : algos) {
        ceal::Rng rng(seed++);
        const TuneResult result = algo->tune(prob, 30, rng);
        const std::string label = algo->name() + " rate " +
                                  std::to_string(rate) + " attempts " +
                                  std::to_string(attempts);
        EXPECT_LE(result.runs_used, 30u) << label;
        EXPECT_EQ(result.model_scores.size(), pool.size()) << label;
        EXPECT_EQ(result.measured_statuses.size(),
                  result.measured_indices.size())
            << label;
        EXPECT_GT(result.measured_indices.size(), result.failed_runs)
            << label;
        for (const double s : result.model_scores) {
          ASSERT_TRUE(std::isfinite(s)) << label;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ceal::tuner
