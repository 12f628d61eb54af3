// ComponentModelSet::fit_shared, the process-wide memo of history
// component fits behind train_component_models: a session whose fit input
// (component configurations, target bits, GbtParams) equals an earlier
// one's reuses that session's models, bit-identical to a fresh fit; any
// change to the input misses; and a fit that draws random numbers
// bypasses the memo. Then ComponentModelSet::predict_pool, the memo of
// those models' predictions over a pool: a hit is bit-identical to fresh
// predictions, a different pool or column layout misses, and sets fitted
// per session never enter it. The memo's own contract (LRU bound, one
// build for concurrent misses, a throwing build) is tested once, on
// SharedMemo (tests/core/test_shared_memo.cc).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/parallel.h"
#include "sim/workloads.h"
#include "tuner/alph.h"
#include "tuner/bayes_opt.h"
#include "tuner/ceal.h"
#include "tuner/evaluation.h"
#include "tuner/low_fidelity.h"
#include "tuner/pool_features.h"
#include "tuner/tuning_util.h"

namespace ceal::tuner {
namespace {

constexpr std::size_t kPoolRows = 120;
constexpr std::size_t kSamples = 40;

/// A workload with its measured pool and component history, built from
/// seeds alone, so two instances are equal but distinct objects.
struct History {
  explicit History(std::uint64_t seed = 5,
                   sim::Workload workload = sim::make_lv())
      : wl(std::move(workload)),
        pool(measure_pool(wl.workflow, kPoolRows, seed)),
        comps(measure_components(wl.workflow, kSamples, seed + 1)) {}

  TuningProblem problem(
      const ml::GbtParams& gbt = ml::GradientBoostedTrees::surrogate_defaults(),
      Objective objective = Objective::kExecTime) const {
    TuningProblem p{&wl, objective, &pool, &comps, true, {}};
    p.surrogate_gbt = gbt;
    return p;
  }

  ml::FeatureMatrix rows() const {
    return featurize_joint(wl.workflow.joint_space(), pool.configs);
  }

  /// Every sample of every component, as the history branch trains.
  std::vector<std::vector<std::size_t>> all_indices() const {
    std::vector<std::vector<std::size_t>> out(comps.size());
    for (std::size_t j = 0; j < comps.size(); ++j) {
      for (std::size_t i = 0; i < comps[j].size(); ++i) out[j].push_back(i);
    }
    return out;
  }

  sim::Workload wl;
  MeasuredPool pool;
  std::vector<ComponentSamples> comps;
};

std::shared_ptr<const ComponentModelSet> train(const TuningProblem& problem,
                                               ceal::Rng& rng) {
  Collector collector(problem, 10);
  return train_component_models(collector, 0, rng);
}

std::shared_ptr<const ComponentModelSet> train(const TuningProblem& problem) {
  ceal::Rng rng(1);
  return train(problem, rng);
}

/// Flips the last mantissa bit of `x`.
double flip_last_bit(double x) {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) ^ 1u);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(SharedComponentFits, HitPredictsBitwiseEqualToFreshFit) {
  const History h;
  const TuningProblem problem = h.problem();
  const auto first = train(problem);
  ceal::Rng rng(7);
  const auto before = rng.state();
  const auto hit = train(problem, rng);
  EXPECT_EQ(rng.state(), before) << "a hit draws no random numbers";

  ceal::Rng fresh_rng(7);
  const ComponentModelSet fresh(h.wl.workflow, problem.objective, h.comps,
                                h.all_indices(), fresh_rng,
                                problem.surrogate_gbt);
  const ml::FeatureMatrix rows = h.rows();
  ASSERT_EQ(hit->component_count(), fresh.component_count());
  for (std::size_t j = 0; j < fresh.component_count(); ++j) {
    EXPECT_EQ(&hit->model(j), &first->model(j)) << "component " << j;
    EXPECT_TRUE(same_bits(hit->predict_many(j, rows),
                          fresh.predict_many(j, rows)))
        << "component " << j;
  }
}

TEST(SharedComponentFits, AnyChangeToTheFitInputMisses) {
  const History h;
  const auto base = train(h.problem());
  const auto shares_base = [&](const TuningProblem& problem) {
    return &train(problem)->model(0) == &base->model(0);
  };

  const History equal;
  EXPECT_TRUE(shares_base(equal.problem()));

  History target = History();
  target.comps[1].exec_s.back() = flip_last_bit(target.comps[1].exec_s.back());
  EXPECT_FALSE(shares_base(target.problem())) << "one target's last bit";

  History config = History();
  auto& value = config.comps[1].configs.back().front();
  for (const auto& other : config.comps[1].configs) {
    if (other.front() != value) {
      value = other.front();
      break;
    }
  }
  EXPECT_FALSE(shares_base(config.problem())) << "one config value";

  ml::GbtParams rounds = ml::GradientBoostedTrees::surrogate_defaults();
  rounds.n_rounds -= 1;
  EXPECT_FALSE(shares_base(h.problem(rounds))) << "GbtParams::n_rounds";
  ml::GbtParams lambda = ml::GradientBoostedTrees::surrogate_defaults();
  lambda.tree.lambda = flip_last_bit(lambda.tree.lambda);
  EXPECT_FALSE(shares_base(h.problem(lambda))) << "TreeParams::lambda";
  ml::GbtParams method = ml::GradientBoostedTrees::surrogate_defaults();
  method.tree.method = ml::TreeMethod::kQuantized;
  EXPECT_FALSE(shares_base(h.problem(method))) << "TreeParams::method";
}

TEST(SharedComponentFits, SubsamplingBypassesTheMemo) {
  const History h;
  ml::GbtParams rows = ml::GradientBoostedTrees::surrogate_defaults();
  rows.subsample = 0.7;
  ml::GbtParams columns = ml::GradientBoostedTrees::surrogate_defaults();
  columns.tree.colsample = 0.6;
  for (const ml::GbtParams& gbt : {rows, columns}) {
    const TuningProblem problem = h.problem(gbt);
    ceal::Rng rng(9);
    const auto first = train(problem, rng);
    const auto again = train(problem, rng);
    EXPECT_NE(&first->model(0), &again->model(0));

    // The same stream the uncached path draws, set after set.
    ceal::Rng uncached_rng(9);
    for (int set = 0; set < 2; ++set) {
      ComponentModelSet(h.wl.workflow, problem.objective, h.comps,
                        h.all_indices(), uncached_rng, gbt);
    }
    EXPECT_EQ(rng.state(), uncached_rng.state());
  }
}

TEST(SharedComponentFits, EqualProblemsOverDistinctObjectsShareModels) {
  const History a;
  const History b;
  ASSERT_NE(&a.comps, &b.comps);
  const auto from_a = train(a.problem());
  const auto from_b = train(b.problem());
  ASSERT_NE(from_a, from_b);
  for (std::size_t j = 0; j < from_a->component_count(); ++j) {
    EXPECT_EQ(&from_a->model(j), &from_b->model(j)) << "component " << j;
  }
}

void expect_same_summary(const EvalSummary& a, const EvalSummary& b) {
  EXPECT_EQ(a.mean_norm_perf, b.mean_norm_perf);
  EXPECT_EQ(a.median_norm_perf, b.median_norm_perf);
  EXPECT_EQ(a.mean_recall, b.mean_recall);
  EXPECT_EQ(a.mean_mdape_all, b.mean_mdape_all);
  EXPECT_EQ(a.mean_mdape_top2, b.mean_mdape_top2);
  EXPECT_EQ(a.mean_cost_exec_s, b.mean_cost_exec_s);
  EXPECT_EQ(a.mean_cost_comp_ch, b.mean_cost_comp_ch);
  EXPECT_EQ(a.mean_runs_used, b.mean_runs_used);
  EXPECT_EQ(a.mean_improvement, b.mean_improvement);
  EXPECT_EQ(a.least_uses, b.least_uses);
  EXPECT_EQ(a.frac_beat_expert, b.frac_beat_expert);
}

// Four workers first, so concurrent replications race to fit the one
// history; the serial run then reuses what they kept.
TEST(SharedComponentFits, HistoryEvaluationIsThreadCountInvariant) {
  const History h(21);
  const Ceal ceal;
  ceal::set_global_thread_pool_threads(4);
  const EvalSummary pooled = evaluate(h.problem(), ceal, 20, 4, 3);
  ceal::set_global_thread_pool_threads(1);
  const EvalSummary serial = evaluate(h.problem(), ceal, 20, 4, 3);
  ceal::set_global_thread_pool_threads(0);
  expect_same_summary(pooled, serial);
}

/// Prediction passes the predict_pool memo has started so far.
std::size_t passes() { return detail::shared_pool_predictions_built(); }

TEST(SharedPoolPredictions, HitIsBitwiseEqualToFreshPredictions) {
  for (sim::Workload& workload : sim::make_all_workloads()) {
    const History h(31, std::move(workload));
    const ml::FeatureMatrix rows = h.rows();
    for (const Objective objective :
         {Objective::kExecTime, Objective::kComputerTime}) {
      const TuningProblem problem =
          h.problem(ml::GradientBoostedTrees::surrogate_defaults(), objective);
      const std::string cell =
          h.wl.workflow.name() + " " + objective_name(objective);
      const auto set = train(problem);
      const auto first = set->predict_pool(rows);
      const std::size_t built = passes();
      const auto hit = set->predict_pool(rows);
      EXPECT_EQ(passes(), built) << cell;
      EXPECT_EQ(hit, first) << cell;

      ceal::Rng rng(3);
      const auto fresh = std::make_shared<const ComponentModelSet>(
          h.wl.workflow, objective, h.comps, h.all_indices(), rng,
          problem.surrogate_gbt);
      ASSERT_EQ(hit->size(), fresh->component_count()) << cell;
      for (std::size_t j = 0; j < fresh->component_count(); ++j) {
        EXPECT_TRUE(same_bits((*hit)[j], fresh->predict_many(j, rows)))
            << cell << " component " << j;
      }
      const LowFidelityModel cached(h.wl.workflow, objective, set);
      const LowFidelityModel uncached(h.wl.workflow, objective, fresh);
      EXPECT_TRUE(same_bits(cached.score_many(rows), uncached.score_many(rows)))
          << cell;
      EXPECT_EQ(passes(), built) << cell << ": fresh sets never enter";
    }
  }
}

TEST(SharedPoolPredictions, NoHistoryEvaluationNeverEntersTheMemo) {
  const History h(33);
  TuningProblem problem = h.problem();
  problem.components_are_history = false;
  const std::size_t before = passes();
  evaluate(problem, Ceal(), 30, 3, 5);
  EXPECT_EQ(passes(), before) << "charged component sets predict directly";
}

TEST(SharedPoolPredictions, APoolDifferingInOneRowMisses) {
  const History h(35);
  const auto set = train(h.problem());
  const ml::FeatureMatrix rows = h.rows();
  set->predict_pool(rows);
  const std::size_t built = passes();

  ml::FeatureMatrix changed = rows;
  changed.set_row(rows.size() - 1, rows.row(0));
  const auto other = set->predict_pool(changed);
  EXPECT_EQ(passes(), built + 1);
  for (std::size_t j = 0; j < set->component_count(); ++j) {
    EXPECT_TRUE(same_bits((*other)[j], set->predict_many(j, changed)))
        << "component " << j;
  }
}

// LV's components reordered: lammps's columns move from offset 0 to 3 and
// voro's from 3 to 0, over the same history and the same pool with each
// configuration's slices swapped.
TEST(SharedPoolPredictions, ComponentsAtOtherColumnOffsetsMiss) {
  const History lv(37);
  const auto& workflow = lv.wl.workflow;
  ASSERT_EQ(workflow.component_count(), 2u);
  sim::Workload swapped{
      sim::InSituWorkflow("VL", workflow.machine(),
                          {workflow.app(1), workflow.app(0)}, {{1, 0}},
                          workflow.coupling()),
      {}, {}};
  ASSERT_NE(workflow.space().slice_range(0),
            swapped.workflow.space().slice_range(1));
  const std::vector<ComponentSamples> comps{lv.comps[1], lv.comps[0]};
  std::vector<config::Configuration> configs;
  for (const auto& c : lv.pool.configs) {
    configs.push_back(swapped.workflow.space().join(
        {workflow.space().slice(c, 1), workflow.space().slice(c, 0)}));
  }

  const auto lv_set = train(lv.problem());
  const auto lv_columns = lv_set->predict_pool(lv.rows());
  const std::size_t built = passes();
  ceal::Rng rng(1);
  const auto vl_set = ComponentModelSet::fit_shared(
      swapped.workflow, Objective::kExecTime, comps,
      {lv.all_indices()[1], lv.all_indices()[0]}, rng,
      ml::GradientBoostedTrees::surrogate_defaults());
  const auto vl_columns = vl_set->predict_pool(
      featurize_joint(swapped.workflow.joint_space(), configs));
  EXPECT_EQ(passes(), built + 1);
  EXPECT_TRUE(same_bits((*vl_columns)[0], (*lv_columns)[1]));
  EXPECT_TRUE(same_bits((*vl_columns)[1], (*lv_columns)[0]));
}

TEST(SharedPoolPredictions, ConcurrentHistoryReplicationsMakeOnePass) {
  const History h(39);
  ceal::set_global_thread_pool_threads(4);
  const std::size_t before = passes();
  evaluate(h.problem(), Ceal(), 20, 4, 3);
  ceal::set_global_thread_pool_threads(0);
  EXPECT_EQ(passes(), before + 1);
}

// The first evaluation of each tuner misses, the second hits; their
// summaries match bit for bit.
TEST(SharedPoolPredictions, HitsLeaveHistorySummariesUnchanged) {
  BayesOptParams bo_ceal;
  bo_ceal.bootstrap_with_low_fidelity = true;
  const Ceal ceal;
  const BayesOpt bayes(bo_ceal);
  const Alph alph;
  std::uint64_t seed = 41;
  for (const AutoTuner* algorithm :
       std::vector<const AutoTuner*>{&ceal, &bayes, &alph}) {
    SCOPED_TRACE(algorithm->name());
    const History h(seed++);
    const std::size_t before = passes();
    const EvalSummary miss = evaluate(h.problem(), *algorithm, 20, 2, 7);
    EXPECT_EQ(passes(), before + 1);
    const EvalSummary hit = evaluate(h.problem(), *algorithm, 20, 2, 7);
    EXPECT_EQ(passes(), before + 1);
    expect_same_summary(miss, hit);
  }
}

}  // namespace
}  // namespace ceal::tuner
