// Kill-and-resume equivalence, swept over every crash point: a
// checkpointed session killed after record k (for all k) and resumed
// must produce a TuneResult bitwise identical to an uninterrupted run —
// under fault injection, at 1 and at 4 worker threads, and with a torn
// journal tail (the partial final record a SIGKILL mid-append leaves).
//
// The "kill" here is simulated by truncating the journal to its first k
// records and resuming from the prefix — exactly the state a killed
// process leaves on disk, at every record boundary, without the expense
// of forking a process per k (tools/run_tier1.sh kills a real ceal_tune
// with SIGKILL for the end-to-end version).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/journal.h"
#include "core/parallel.h"
#include "sim/workloads.h"
#include "tuner/active_learning.h"
#include "tuner/alph.h"
#include "tuner/bayes_opt.h"
#include "tuner/ceal.h"
#include "tuner/checkpoint.h"
#include "tuner/random_search.h"

namespace ceal::tuner {
namespace {

constexpr std::uint64_t kSeed = 13;
constexpr std::size_t kBudget = 12;

struct Env {
  sim::Workload wl = sim::make_lv();
  MeasuredPool pool;
  std::vector<ComponentSamples> comps;

  Env()
      : pool(measure_pool(wl.workflow, 150, 81)),
        comps(measure_components(wl.workflow, 60, 82)) {}

  TuningProblem problem(double fail_prob) const {
    TuningProblem prob{&wl, Objective::kExecTime, &pool, &comps, false, {}};
    prob.measurement.faults.fail_prob = fail_prob;
    prob.measurement.max_attempts = 2;
    return prob;
  }
};

const Env& env() {
  static Env e;
  return e;
}

void expect_same_result(const TuneResult& a, const TuneResult& b,
                        const std::string& context) {
  ASSERT_EQ(a.measured_indices, b.measured_indices) << context;
  ASSERT_EQ(a.measured_statuses, b.measured_statuses) << context;
  ASSERT_EQ(a.failed_runs, b.failed_runs) << context;
  ASSERT_EQ(a.best_predicted_index, b.best_predicted_index) << context;
  ASSERT_EQ(a.best_measured_index, b.best_measured_index) << context;
  ASSERT_EQ(a.runs_used, b.runs_used) << context;
  ASSERT_EQ(a.cost_exec_s, b.cost_exec_s) << context;
  ASSERT_EQ(a.cost_comp_ch, b.cost_comp_ch) << context;
  ASSERT_EQ(a.model_scores.size(), b.model_scores.size()) << context;
  for (std::size_t i = 0; i < a.model_scores.size(); ++i) {
    ASSERT_EQ(a.model_scores[i], b.model_scores[i])
        << context << ", score " << i;
  }
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is),
          std::istreambuf_iterator<char>()};
}

void write_raw(const std::string& path, const std::string& bytes) {
  std::remove(path.c_str());
  std::ofstream os(path, std::ios::binary);
  os << bytes;
}

/// Byte offsets of the journal's record boundaries: boundaries[k] is
/// where record k ends (boundaries[0] == 0).
std::vector<std::size_t> record_boundaries(const std::string& bytes) {
  std::vector<std::size_t> boundaries{0};
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    if (bytes[i] == '\n') boundaries.push_back(i + 1);
  }
  return boundaries;
}

class CrashMatrixTest : public ::testing::Test {
 protected:
  CrashMatrixTest()
      : path_(::testing::TempDir() + "ceal_crash_matrix." +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".cealj") {
    std::remove(path_.c_str());
  }
  void TearDown() override {
    std::remove(path_.c_str());
    set_global_thread_pool_threads(0);
  }

  TuneResult resume_from(const std::string& prefix_bytes,
                         const AutoTuner& algo, const TuningProblem& prob) {
    write_raw(path_, prefix_bytes);
    CheckpointSession session(path_, CheckpointSession::Mode::kResume);
    Rng rng(kSeed);
    return algo.tune(prob, kBudget, rng, &session);
  }

  /// The full sweep for one algorithm: uninterrupted baseline, then a
  /// resume from the journal prefix at every record boundary k >= 1.
  void sweep(const AutoTuner& algo, const TuningProblem& prob) {
    // Uninterrupted baseline, no checkpoint: the null path.
    Rng baseline_rng(kSeed);
    const TuneResult baseline = algo.tune(prob, kBudget, baseline_rng);

    // Uninterrupted checkpointed run: same result, and its journal is
    // the ground truth every crash prefix below is cut from.
    std::remove(path_.c_str());
    {
      CheckpointSession session(path_, CheckpointSession::Mode::kStart);
      Rng rng(kSeed);
      const TuneResult checkpointed =
          algo.tune(prob, kBudget, rng, &session);
      expect_same_result(checkpointed, baseline,
                         algo.name() + " checkpointed");
    }
    const std::string journal = slurp(path_);
    const auto boundaries = record_boundaries(journal);
    const std::size_t n = boundaries.size() - 1;
    ASSERT_GT(n, 2u) << algo.name();

    for (std::size_t k = 1; k <= n; ++k) {
      const TuneResult resumed =
          resume_from(journal.substr(0, boundaries[k]), algo, prob);
      expect_same_result(resumed, baseline,
                         algo.name() + " killed after record " +
                             std::to_string(k) + "/" + std::to_string(n));
    }
  }

  std::string path_;
};

TEST_F(CrashMatrixTest, CealSurvivesAKillAtEveryRecordBoundary) {
  set_global_thread_pool_threads(1);
  sweep(Ceal(), env().problem(0.2));
}

TEST_F(CrashMatrixTest, CealCrashMatrixIsThreadCountInvariant) {
  set_global_thread_pool_threads(4);
  sweep(Ceal(), env().problem(0.2));
}

TEST_F(CrashMatrixTest, TornTailsResumeLikeCleanBoundaries) {
  // A SIGKILL mid-append leaves k whole records plus a partial line;
  // resume must drop the fragment and continue from record k.
  const TuningProblem prob = env().problem(0.2);
  const Ceal algo;
  Rng baseline_rng(kSeed);
  const TuneResult baseline = algo.tune(prob, kBudget, baseline_rng);
  std::remove(path_.c_str());
  {
    CheckpointSession session(path_, CheckpointSession::Mode::kStart);
    Rng rng(kSeed);
    algo.tune(prob, kBudget, rng, &session);
  }
  const std::string journal = slurp(path_);
  const auto boundaries = record_boundaries(journal);
  const std::size_t n = boundaries.size() - 1;
  for (std::size_t k = 1; k + 1 <= n; k += 3) {
    // Cut partway into record k+1 (at least one byte past the boundary,
    // at most one byte short of its newline).
    const std::size_t cut =
        boundaries[k] + (boundaries[k + 1] - boundaries[k]) / 2;
    const TuneResult resumed =
        resume_from(journal.substr(0, cut), algo, prob);
    expect_same_result(resumed, baseline,
                       "torn tail inside record " + std::to_string(k + 1));
  }
}

TEST_F(CrashMatrixTest, FaultFreeSessionsResumeToo) {
  // Without fault injection there is no fault-rng state to hand across
  // the crash; the measure records alone must carry the session.
  const TuningProblem prob = env().problem(0.0);
  const Ceal algo;
  Rng baseline_rng(kSeed);
  const TuneResult baseline = algo.tune(prob, kBudget, baseline_rng);
  std::remove(path_.c_str());
  {
    CheckpointSession session(path_, CheckpointSession::Mode::kStart);
    Rng rng(kSeed);
    algo.tune(prob, kBudget, rng, &session);
  }
  const std::string journal = slurp(path_);
  const auto boundaries = record_boundaries(journal);
  const std::size_t mid = (boundaries.size() - 1) / 2;
  const TuneResult resumed =
      resume_from(journal.substr(0, boundaries[mid]), algo, prob);
  expect_same_result(resumed, baseline, "fault-free resume");
}

TEST_F(CrashMatrixTest, OtherSearchersSurviveMidSessionKills) {
  // Spot-check the shared-helper path: AL, ALpH, BO-CEAL and RS journal
  // through the same Collector/measure_batch machinery as CEAL. ALpH and
  // BO-CEAL also charge component rounds before their first batch.
  const TuningProblem prob = env().problem(0.2);
  const ActiveLearning al;
  const Alph alph;
  BayesOptParams bo_ceal_params;
  bo_ceal_params.bootstrap_with_low_fidelity = true;
  const BayesOpt bo_ceal(bo_ceal_params);
  const RandomSearch rs;
  for (const AutoTuner* algo :
       std::initializer_list<const AutoTuner*>{&al, &alph, &bo_ceal, &rs}) {
    Rng baseline_rng(kSeed);
    const TuneResult baseline = algo->tune(prob, kBudget, baseline_rng);
    std::remove(path_.c_str());
    {
      CheckpointSession session(path_, CheckpointSession::Mode::kStart);
      Rng rng(kSeed);
      algo->tune(prob, kBudget, rng, &session);
    }
    const std::string journal = slurp(path_);
    const auto boundaries = record_boundaries(journal);
    const std::size_t n = boundaries.size() - 1;
    ASSERT_GT(n, 2u) << algo->name();
    for (const std::size_t k : {std::size_t{1}, n / 2, n - 1}) {
      const TuneResult resumed =
          resume_from(journal.substr(0, boundaries[k]), *algo, prob);
      expect_same_result(resumed, baseline,
                         algo->name() + " killed after record " +
                             std::to_string(k));
    }
  }
}

}  // namespace
}  // namespace ceal::tuner
