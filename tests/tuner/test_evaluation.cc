#include "tuner/evaluation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <mutex>
#include <set>
#include <thread>

#include "core/parallel.h"
#include "measure/backend.h"
#include "sim/workloads.h"
#include "tuner/ceal.h"
#include "tuner/random_search.h"

namespace ceal::tuner {
namespace {

class EvaluationTest : public ::testing::Test {
 protected:
  EvaluationTest()
      : wl_(sim::make_lv()),
        pool_(measure_pool(wl_.workflow, 300, 31)),
        comps_(measure_components(wl_.workflow, 60, 32)) {}

  TuningProblem problem(Objective obj = Objective::kExecTime) {
    return TuningProblem{&wl_, obj, &pool_, &comps_, true, {}};
  }

  sim::Workload wl_;
  MeasuredPool pool_;
  std::vector<ComponentSamples> comps_;
};

TEST_F(EvaluationTest, SummaryFieldsArePopulated) {
  auto prob = problem();
  RandomSearch rs;
  const auto s = evaluate(prob, rs, 15, 5, 1);
  EXPECT_EQ(s.algorithm, "RS");
  EXPECT_EQ(s.workload, "LV");
  EXPECT_EQ(s.budget, 15u);
  EXPECT_EQ(s.replications, 5u);
  EXPECT_GE(s.mean_norm_perf, 1.0);
  EXPECT_GE(s.median_norm_perf, 1.0);
  EXPECT_GT(s.mean_cost_exec_s, 0.0);
  EXPECT_GT(s.mean_cost_comp_ch, 0.0);
  EXPECT_GT(s.mean_runs_used, 0.0);
  EXPECT_LE(s.mean_runs_used, 15.0);
}

TEST_F(EvaluationTest, RecallIsMonotonicallyMeaningful) {
  auto prob = problem();
  RandomSearch rs;
  const auto s = evaluate(prob, rs, 15, 5, 2);
  for (const double r : s.mean_recall) {
    EXPECT_GE(r, 0.0);
    EXPECT_LE(r, 100.0);
  }
}

TEST_F(EvaluationTest, DeterministicGivenSeed) {
  auto prob = problem();
  RandomSearch rs;
  const auto a = evaluate(prob, rs, 10, 4, 7);
  const auto b = evaluate(prob, rs, 10, 4, 7);
  EXPECT_DOUBLE_EQ(a.mean_norm_perf, b.mean_norm_perf);
  EXPECT_DOUBLE_EQ(a.mean_mdape_all, b.mean_mdape_all);
}

TEST_F(EvaluationTest, DifferentSeedsGiveDifferentRuns) {
  auto prob = problem();
  RandomSearch rs;
  const auto a = evaluate(prob, rs, 10, 4, 7);
  const auto b = evaluate(prob, rs, 10, 4, 8);
  EXPECT_NE(a.mean_norm_perf, b.mean_norm_perf);
}

TEST_F(EvaluationTest, ThreadPoolGivesSameAggregates) {
  auto prob = problem();
  RandomSearch rs;
  ceal::set_global_thread_pool_threads(1);
  const auto serial = evaluate(prob, rs, 10, 6, 9);
  ceal::set_global_thread_pool_threads(4);
  const auto parallel = evaluate(prob, rs, 10, 6, 9);
  ceal::set_global_thread_pool_threads(0);
  EXPECT_DOUBLE_EQ(serial.mean_norm_perf, parallel.mean_norm_perf);
  EXPECT_DOUBLE_EQ(serial.mean_recall[0], parallel.mean_recall[0]);
}

/// Reads the pool rows like InProcessBackend and records every thread
/// that calls it.
class ThreadRecordingBackend final : public measure::MeasureBackend {
 public:
  explicit ThreadRecordingBackend(const MeasuredPool& pool) : pool_(&pool) {}

  const char* name() const override { return "thread-recording"; }

  measure::RawRun run(std::size_t pool_index) override {
    {
      std::lock_guard lock(mutex_);
      callers_.insert(std::this_thread::get_id());
    }
    return {pool_->exec_s[pool_index], pool_->comp_ch[pool_index]};
  }

  std::set<std::thread::id> callers() const {
    std::lock_guard lock(mutex_);
    return callers_;
  }

 private:
  const MeasuredPool* pool_;
  mutable std::mutex mutex_;
  std::set<std::thread::id> callers_;  // guarded by mutex_
};

// A measurement backend takes calls from one thread only
// (measure/subprocess.h), so evaluate keeps replications on the calling
// thread when one is installed — with identical aggregates.
TEST_F(EvaluationTest, MeasureBackendIsCalledFromOneThread) {
  ceal::set_global_thread_pool_threads(4);
  RandomSearch rs;
  const auto pooled = evaluate(problem(), rs, 10, 6, 9);

  ThreadRecordingBackend backend(pool_);
  auto prob = problem();
  prob.measure = &backend;
  const auto inline_run = evaluate(prob, rs, 10, 6, 9);
  ceal::set_global_thread_pool_threads(0);

  const auto callers = backend.callers();
  ASSERT_EQ(callers.size(), 1u);
  EXPECT_EQ(*callers.begin(), std::this_thread::get_id());
  EXPECT_EQ(inline_run.mean_norm_perf, pooled.mean_norm_perf);
  EXPECT_EQ(inline_run.mean_recall, pooled.mean_recall);
  EXPECT_EQ(inline_run.mean_cost_exec_s, pooled.mean_cost_exec_s);
}

TEST_F(EvaluationTest, LeastUsesIsCostOverImprovement) {
  auto prob = problem(Objective::kComputerTime);
  Ceal ceal;
  const auto s = evaluate(prob, ceal, 25, 5, 3);
  if (s.mean_improvement > 0.0) {
    EXPECT_NEAR(s.least_uses, s.mean_cost_comp_ch / s.mean_improvement,
                1e-9);
  } else {
    EXPECT_TRUE(std::isinf(s.least_uses));
  }
}

TEST_F(EvaluationTest, FracBeatExpertWithinBounds) {
  auto prob = problem();
  RandomSearch rs;
  const auto s = evaluate(prob, rs, 15, 5, 4);
  EXPECT_GE(s.frac_beat_expert, 0.0);
  EXPECT_LE(s.frac_beat_expert, 1.0);
}

TEST_F(EvaluationTest, MdapeSplitsComputed) {
  auto prob = problem();
  Ceal ceal;
  const auto s = evaluate(prob, ceal, 20, 5, 5);
  EXPECT_GT(s.mean_mdape_all, 0.0);
  // CEAL often measures the entire top-2% of a small pool, in which case
  // the override makes its top-2% error exactly zero.
  EXPECT_GE(s.mean_mdape_top2, 0.0);
  EXPECT_LT(s.mean_mdape_top2, s.mean_mdape_all + 100.0);
}

}  // namespace
}  // namespace ceal::tuner
