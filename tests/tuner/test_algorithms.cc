// Contract tests shared by every auto-tuning algorithm, run as a
// parameterized suite: budget discipline, result consistency, and
// determinism.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "core/error.h"
#include "sim/workloads.h"
#include "tuner/active_learning.h"
#include "tuner/alph.h"
#include "tuner/bayes_opt.h"
#include "tuner/ceal.h"
#include "tuner/geist.h"
#include "tuner/random_search.h"
#include "tuner/session_spec.h"
#include "tuner/stepper.h"

namespace ceal::tuner {
namespace {

struct Fixture {
  sim::Workload wl = sim::make_lv();
  MeasuredPool pool;
  std::vector<ComponentSamples> comps;

  Fixture()
      : pool(measure_pool(wl.workflow, 300, 11)),
        comps(measure_components(wl.workflow, 60, 12)) {}
};

Fixture& fixture() {
  static Fixture f;  // built once; measuring pools is the slow part
  return f;
}

class AlgorithmContract
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {
 protected:
  TuningProblem problem() {
    auto& f = fixture();
    return TuningProblem{&f.wl, Objective::kExecTime, &f.pool, &f.comps,
                         std::get<1>(GetParam()), {}};
  }

  std::unique_ptr<AutoTuner> tuner() {
    return algorithm_by_name(std::get<0>(GetParam()));
  }
};

TEST_P(AlgorithmContract, RespectsBudget) {
  auto prob = problem();
  ceal::Rng rng(1);
  const auto result = tuner()->tune(prob, 20, rng);
  EXPECT_LE(result.runs_used, 20u);
  EXPECT_GE(result.runs_used, 1u);
}

TEST_P(AlgorithmContract, ScoresCoverWholePool) {
  auto prob = problem();
  ceal::Rng rng(2);
  const auto result = tuner()->tune(prob, 20, rng);
  EXPECT_EQ(result.model_scores.size(), prob.pool->size());
}

TEST_P(AlgorithmContract, BestPredictedIsArgminOfScores) {
  auto prob = problem();
  ceal::Rng rng(3);
  const auto result = tuner()->tune(prob, 20, rng);
  for (const double s : result.model_scores) {
    EXPECT_LE(result.model_scores[result.best_predicted_index], s);
  }
}

TEST_P(AlgorithmContract, MeasuredIndicesAreUniqueAndInRange) {
  auto prob = problem();
  ceal::Rng rng(4);
  const auto result = tuner()->tune(prob, 20, rng);
  std::set<std::size_t> seen(result.measured_indices.begin(),
                             result.measured_indices.end());
  EXPECT_EQ(seen.size(), result.measured_indices.size());
  for (const std::size_t i : result.measured_indices) {
    EXPECT_LT(i, prob.pool->size());
  }
}

TEST_P(AlgorithmContract, MeasuredConfigsScoreAsObservations) {
  auto prob = problem();
  ceal::Rng rng(5);
  const auto result = tuner()->tune(prob, 20, rng);
  const auto& measured = prob.pool->measured(prob.objective);
  for (const std::size_t i : result.measured_indices) {
    EXPECT_DOUBLE_EQ(result.model_scores[i], measured[i]);
  }
}

TEST_P(AlgorithmContract, DeterministicGivenSeed) {
  auto prob = problem();
  ceal::Rng r1(6), r2(6);
  const auto a = tuner()->tune(prob, 15, r1);
  const auto b = tuner()->tune(prob, 15, r2);
  EXPECT_EQ(a.best_predicted_index, b.best_predicted_index);
  EXPECT_EQ(a.measured_indices, b.measured_indices);
  EXPECT_EQ(a.model_scores, b.model_scores);
}

TEST_P(AlgorithmContract, CostsArePositiveAndConsistent) {
  auto prob = problem();
  ceal::Rng rng(7);
  const auto result = tuner()->tune(prob, 20, rng);
  EXPECT_GT(result.cost_exec_s, 0.0);
  EXPECT_GT(result.cost_comp_ch, 0.0);
  // Cost includes at least the measured workflow runs.
  double min_cost = 0.0;
  for (const std::size_t i : result.measured_indices) {
    min_cost += prob.pool->exec_s[i];
  }
  EXPECT_GE(result.cost_exec_s, min_cost - 1e-9);
}

TEST_P(AlgorithmContract, BestMeasuredIsTrulyTheBestMeasurement) {
  auto prob = problem();
  ceal::Rng rng(8);
  const auto result = tuner()->tune(prob, 20, rng);
  const auto& measured = prob.pool->measured(prob.objective);
  for (const std::size_t i : result.measured_indices) {
    EXPECT_LE(measured[result.best_measured_index], measured[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, AlgorithmContract,
    ::testing::Values(std::make_tuple("RS", false),
                      std::make_tuple("AL", false),
                      std::make_tuple("GEIST", false),
                      std::make_tuple("CEAL", false),
                      std::make_tuple("ALpH", true),
                      std::make_tuple("CEAL", true),
                      std::make_tuple("ALpH", false)),
    [](const auto& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) ? "_hist" : "_nohist");
    });

TEST(AlgorithmNames, AreStable) {
  EXPECT_EQ(RandomSearch().name(), "RS");
  EXPECT_EQ(ActiveLearning().name(), "AL");
  EXPECT_EQ(Geist().name(), "GEIST");
  EXPECT_EQ(Alph().name(), "ALpH");
  EXPECT_EQ(Ceal().name(), "CEAL");
}

TEST(ComponentBudget, TooSmallChargedBudgetsAreRejectedWhenTheStepperIsBuilt) {
  // Charged component rounds must leave room for workflow runs: CEAL and
  // BO-CEAL need 3 runs, ALpH 2. The check runs once, before any step.
  auto& f = fixture();
  TuningProblem prob{&f.wl, Objective::kExecTime, &f.pool, &f.comps, false, {}};
  ceal::Rng rng(4);
  for (const auto& [name, min_budget] :
       {std::pair<std::string, std::size_t>{"CEAL", 3}, {"BO-CEAL", 3},
        {"ALpH", 2}, {"BO", 1}, {"AL", 1}}) {
    const auto algo = algorithm_by_name(name);
    for (std::size_t budget = 1; budget < min_budget; ++budget) {
      EXPECT_THROW(algo->make_stepper(prob, budget, rng), PreconditionError)
          << name << " budget " << budget;
    }
    EXPECT_NO_THROW(algo->make_stepper(prob, min_budget, rng)) << name;
  }

  // Free histories charge nothing, so any budget runs to completion.
  prob.components_are_history = true;
  for (const std::string name : {"CEAL", "BO-CEAL", "ALpH"}) {
    ceal::Rng session_rng(5);
    EXPECT_EQ(algorithm_by_name(name)->tune(prob, 1, session_rng).runs_used, 1u)
        << name;
  }
}

TEST(StepCounts, EveryTunerTakesItsPinnedNumberOfSteps) {
  // A served session yields after every step, and perfbench's steps_per_s
  // and step_*_ms are per-step figures: a tuner's step count at a fixed
  // budget is part of its contract. m = 50, session seed 3; "faults" is a
  // fault rate of 0.3 with two attempts per request.
  struct Case {
    const char* tuner;
    bool history;
    bool faults;
    std::size_t steps;
  };
  auto& f = fixture();
  for (const Case& c : {Case{"CEAL", false, false, 9},
                        Case{"CEAL", true, false, 4},
                        Case{"CEAL", false, true, 7},
                        Case{"AL", false, false, 12},
                        Case{"AL", false, true, 8},
                        Case{"GEIST", false, false, 12},
                        Case{"ALpH", false, false, 6},
                        Case{"ALpH", true, false, 13},
                        Case{"BO", false, false, 12},
                        Case{"BO-CEAL", false, false, 5},
                        Case{"BO-CEAL", true, false, 12},
                        Case{"RS", false, false, 2}}) {
    TuningProblem prob{&f.wl, Objective::kExecTime, &f.pool, &f.comps,
                       c.history, {}};
    if (c.faults) {
      prob.measurement.faults.fail_prob = 0.3;
      prob.measurement.max_attempts = 2;
    }
    ceal::Rng rng(3);
    const auto stepper =
        algorithm_by_name(c.tuner)->make_stepper(prob, 50, rng);
    while (stepper->step()) {
    }
    EXPECT_EQ(stepper->steps_taken(), c.steps)
        << c.tuner << (c.history ? " history" : "")
        << (c.faults ? " faults" : "");
  }
}

TEST(SurrogateGbt, ReachesEverySurrogateTuner) {
  // TuningProblem::surrogate_gbt configures every model the tuners
  // train: a 2-bin quantized trainer must change each tuner's scores.
  auto& f = fixture();
  TuningProblem exact{&f.wl, Objective::kExecTime, &f.pool, &f.comps, false,
                      {}};
  TuningProblem coarse = exact;
  coarse.surrogate_gbt.tree.method = ml::TreeMethod::kQuantized;
  coarse.surrogate_gbt.tree.max_bins = 2;
  for (const std::string name :
       {"AL", "GEIST", "CEAL", "ALpH", "BO", "BO-CEAL"}) {
    const auto algo = algorithm_by_name(name);
    ceal::Rng r1(6), r2(6);
    EXPECT_NE(algo->tune(exact, 20, r1).model_scores,
              algo->tune(coarse, 20, r2).model_scores)
        << name;
  }
}

TEST(PoolGraphTest, NeighborsAreSymmetricallySized) {
  auto& f = fixture();
  const PoolGraph graph(f.wl.workflow.joint_space(), f.pool.configs, 5);
  EXPECT_EQ(graph.size(), f.pool.size());
  for (std::size_t i = 0; i < graph.size(); ++i) {
    EXPECT_EQ(graph.neighbors(i).size(), 5u);
    for (const std::size_t nb : graph.neighbors(i)) {
      EXPECT_NE(nb, i);
      EXPECT_LT(nb, graph.size());
    }
  }
}

TEST(GeistTest, SharedGraphGivesSameResultAsOwnGraph) {
  auto& f = fixture();
  TuningProblem prob{&f.wl, Objective::kExecTime, &f.pool, &f.comps, false, {}};
  GeistParams with_graph;
  with_graph.graph = std::make_shared<PoolGraph>(
      f.wl.workflow.joint_space(), f.pool.configs, with_graph.k_neighbors);
  Geist own{GeistParams{}}, shared{with_graph};
  ceal::Rng r1(9), r2(9);
  EXPECT_EQ(own.tune(prob, 15, r1).best_predicted_index,
            shared.tune(prob, 15, r2).best_predicted_index);
}

}  // namespace
}  // namespace ceal::tuner
