// Streaming pool scoring (tuner/pool_scorer.h): chunked featurization
// must reproduce the monolithic matrix row for row at any thread count
// and chunk size (including chunk sizes that do not divide the pool),
// streaming scores must be bitwise equal to cached scores, and CEAL, RS
// and GEIST sessions that opt into pool_chunk_rows must return the
// identical TuneResult.
#include "tuner/pool_scorer.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/parallel.h"
#include "core/rng.h"
#include "sim/workloads.h"
#include "tuner/ceal.h"
#include "tuner/geist.h"
#include "tuner/low_fidelity.h"
#include "tuner/measured_pool.h"
#include "tuner/pool_features.h"
#include "tuner/random_search.h"
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

TEST_F(PoolScorerTest, ChunkedFeaturizationMatchesMonolithicRows) {
  const auto& space = wl_.workflow.joint_space();
  const ml::FeatureMatrix whole = featurize_joint(space, pool_.configs);
  // Chunk sizes that divide the pool, that do not (300 = 7*42 + 6), and
  // that exceed it — each at 1 and 4 workers.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ceal::set_global_thread_pool_threads(threads);
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                    std::size_t{50}, std::size_t{299},
                                    std::size_t{300}, std::size_t{1000}}) {
      std::size_t rows_seen = 0;
      featurize_joint_chunked(
          space, pool_.configs, chunk,
          [&](std::size_t first, const ml::FeatureMatrix& block) {
            ASSERT_EQ(first, rows_seen);
            ASSERT_LE(block.size(), chunk);
            ASSERT_EQ(block.n_features(), whole.n_features());
            for (std::size_t r = 0; r < block.size(); ++r) {
              const auto want = whole.row(first + r);
              const auto got = block.row(r);
              for (std::size_t k = 0; k < got.size(); ++k) {
                ASSERT_EQ(want[k], got[k]) << "chunk " << chunk;
              }
            }
            rows_seen += block.size();
          });
      ASSERT_EQ(rows_seen, pool_.configs.size());
    }
  }
}

TEST_F(PoolScorerTest, StreamingScoresBitwiseEqualCached) {
  const Surrogate surrogate = fitted_surrogate();
  const LowFidelityModel model = low_fidelity();

  const PoolScorer cached(wl_.workflow, pool_.configs, 0, nullptr);
  ASSERT_FALSE(cached.streaming());
  const auto surr_cached = cached.surrogate_scores(surrogate);
  const auto low_cached = cached.low_fidelity_scores(model);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ceal::set_global_thread_pool_threads(threads);
    for (const std::size_t chunk : {std::size_t{64}, std::size_t{299}}) {
      const PoolScorer streaming(wl_.workflow, pool_.configs, chunk,
                                 nullptr);
      ASSERT_TRUE(streaming.streaming());
      const auto surr = streaming.surrogate_scores(surrogate);
      const auto low = streaming.low_fidelity_scores(model);
      ASSERT_EQ(surr.size(), surr_cached.size());
      ASSERT_EQ(low.size(), low_cached.size());
      for (std::size_t i = 0; i < surr.size(); ++i) {
        ASSERT_EQ(surr[i], surr_cached[i]) << "chunk " << chunk;
        ASSERT_EQ(low[i], low_cached[i]) << "chunk " << chunk;
      }
    }
  }
}

TEST_F(PoolScorerTest, JointRowAgreesBetweenModes) {
  const PoolScorer cached(wl_.workflow.joint_space(), pool_.configs, 0,
                          nullptr);
  const PoolScorer streaming(wl_.workflow.joint_space(), pool_.configs, 32,
                             nullptr);
  for (const std::size_t i : {std::size_t{0}, std::size_t{150},
                              pool_.configs.size() - 1}) {
    const auto want = cached.joint_row(i);
    const auto got = streaming.joint_row(i);
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t k = 0; k < want.size(); ++k) {
      ASSERT_EQ(want[k], got[k]);
    }
  }
}

TEST_F(PoolScorerTest, CealWithChunkedPoolReturnsIdenticalResult) {
  TuningProblem problem{&wl_, Objective::kExecTime, &pool_, &comps_, true,
                        {}};
  Ceal ceal;
  ceal::Rng rng_cached(31);
  const TuneResult cached = ceal.tune(problem, 25, rng_cached);

  problem.pool_chunk_rows = 77;  // does not divide the 300-entry pool
  ceal::Rng rng_chunked(31);
  const TuneResult chunked = ceal.tune(problem, 25, rng_chunked);

  ASSERT_EQ(cached.best_predicted_index, chunked.best_predicted_index);
  ASSERT_EQ(cached.best_measured_index, chunked.best_measured_index);
  ASSERT_EQ(cached.measured_indices, chunked.measured_indices);
  ASSERT_EQ(cached.model_scores.size(), chunked.model_scores.size());
  for (std::size_t i = 0; i < cached.model_scores.size(); ++i) {
    ASSERT_EQ(cached.model_scores[i], chunked.model_scores[i]);
  }
}

TEST_F(PoolScorerTest, ChunkedPoolLeavesRsAndGeistResultsUnchanged) {
  TuningProblem problem{&wl_, Objective::kExecTime, &pool_, &comps_, true,
                        {}};
  const RandomSearch rs;
  const Geist geist;
  const std::vector<const AutoTuner*> algorithms{&rs, &geist};
  for (const AutoTuner* algorithm : algorithms) {
    SCOPED_TRACE(algorithm->name());
    problem.pool_chunk_rows = 0;
    ceal::Rng rng_cached(17);
    const TuneResult cached = algorithm->tune(problem, 20, rng_cached);
    problem.pool_chunk_rows = 77;
    ceal::Rng rng_chunked(17);
    const TuneResult chunked = algorithm->tune(problem, 20, rng_chunked);
    ASSERT_EQ(cached.best_predicted_index, chunked.best_predicted_index);
    ASSERT_EQ(cached.measured_indices, chunked.measured_indices);
    ASSERT_EQ(cached.model_scores.size(), chunked.model_scores.size());
    for (std::size_t i = 0; i < cached.model_scores.size(); ++i) {
      ASSERT_EQ(cached.model_scores[i], chunked.model_scores[i]);
    }
  }
}

}  // namespace
}  // namespace ceal::tuner
