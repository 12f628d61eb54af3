#include "tuner/geist.h"

#include <algorithm>
#include <limits>
#include <memory>

#include "core/error.h"
#include "core/parallel.h"
#include "core/stats.h"
#include "core/telemetry.h"
#include "tuner/active_learning.h"
#include "tuner/surrogate.h"
#include "tuner/tuning_util.h"

namespace ceal::tuner {

PoolGraph::PoolGraph(const config::ConfigSpace& space,
                     const std::vector<config::Configuration>& configs,
                     std::size_t k_neighbors) {
  CEAL_EXPECT(configs.size() >= 2);
  CEAL_EXPECT(k_neighbors >= 1);
  const std::size_t n = configs.size();
  const std::size_t d = space.dimension();
  const std::size_t k = std::min(k_neighbors, n - 1);

  // Min-max normalise features over the pool.
  std::vector<double> feat(n * d);
  std::vector<double> lo(d, std::numeric_limits<double>::infinity());
  std::vector<double> hi(d, -std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < n; ++i) {
    const auto f = space.features(configs[i]);
    for (std::size_t j = 0; j < d; ++j) {
      feat[i * d + j] = f[j];
      lo[j] = std::min(lo[j], f[j]);
      hi[j] = std::max(hi[j], f[j]);
    }
  }
  for (std::size_t j = 0; j < d; ++j) {
    const double span = hi[j] - lo[j];
    const double scale = span > 0.0 ? 1.0 / span : 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      feat[i * d + j] = (feat[i * d + j] - lo[j]) * scale;
    }
  }

  // A row's neighbour list depends on that row alone, so blocks of rows
  // run on the shared pool with the same lists for any worker count.
  neighbors_.resize(n);
  constexpr std::size_t kRowsPerBlock = 64;
  const std::size_t blocks = (n + kRowsPerBlock - 1) / kRowsPerBlock;
  ceal::parallel_apply(0, blocks, [&](std::size_t block) {
    std::vector<std::pair<double, std::size_t>> dist(n);
    const std::size_t end = std::min(n, (block + 1) * kRowsPerBlock);
    for (std::size_t i = block * kRowsPerBlock; i < end; ++i) {
      for (std::size_t m = 0; m < n; ++m) {
        double acc = 0.0;
        for (std::size_t j = 0; j < d; ++j) {
          const double delta = feat[i * d + j] - feat[m * d + j];
          acc += delta * delta;
        }
        dist[m] = {acc, m};
      }
      dist[i].first = std::numeric_limits<double>::infinity();  // not self
      std::partial_sort(dist.begin(),
                        dist.begin() + static_cast<std::ptrdiff_t>(k),
                        dist.end());
      neighbors_[i].reserve(k);
      for (std::size_t m = 0; m < k; ++m) {
        neighbors_[i].push_back(dist[m].second);
      }
    }
  });
}

const std::vector<std::size_t>& PoolGraph::neighbors(std::size_t i) const {
  CEAL_EXPECT(i < neighbors_.size());
  return neighbors_[i];
}

Geist::Geist(GeistParams params) : params_(std::move(params)) {
  CEAL_EXPECT(params_.iterations >= 1);
  CEAL_EXPECT(params_.init_fraction > 0.0 && params_.init_fraction <= 1.0);
  CEAL_EXPECT(params_.alpha >= 0.0 && params_.alpha <= 1.0);
  CEAL_EXPECT(params_.top_quantile > 0.0 && params_.top_quantile < 1.0);
}

namespace {

// GEIST's ranker: label propagation over the pool graph, seeded by the
// measurements so far; the final pass fits a surrogate.
class GeistStepper final : public ActiveLearningLoop {
 public:
  GeistStepper(const Geist& algorithm, const GeistParams& params,
               const TuningProblem& problem, std::size_t budget_runs,
               ceal::Rng& rng)
      : ActiveLearningLoop(algorithm, problem, budget_runs, rng,
                           "geist.iteration", params.iterations,
                           params.init_fraction),
        params_(params),
        graph_(params_.graph) {
    if (!graph_) {
      graph_ = std::make_shared<PoolGraph>(
          problem_.workload->workflow.joint_space(), problem_.pool->configs,
          params_.k_neighbors);
    }
    CEAL_EXPECT_MSG(graph_->size() == problem_.pool->size(),
                    "pool graph does not match the pool");
  }

 private:
  PoolRanking rank() override {
    const std::size_t pool_size = problem_.pool->size();
    telemetry::ScopedSpan propagate_span(problem_.telemetry,
                                         "geist.propagate");
    // Seed labels: successfully measured configs in the running top
    // quantile are 1 (failed attempts carry no label signal).
    const auto& indices = collector_.ok_indices();
    const auto& values = collector_.ok_values();
    const double threshold = ceal::quantile(values, params_.top_quantile);

    std::vector<double> belief(pool_size, 0.5);  // unknown prior
    std::vector<double> seed(pool_size, -1.0);
    for (std::size_t s = 0; s < indices.size(); ++s) {
      seed[indices[s]] = values[s] <= threshold ? 1.0 : 0.0;
      belief[indices[s]] = seed[indices[s]];
    }

    for (std::size_t it = 0; it < params_.propagation_iters; ++it) {
      std::vector<double> next(pool_size);
      for (std::size_t i = 0; i < pool_size; ++i) {
        const auto& nbrs = graph_->neighbors(i);
        double acc = 0.0;
        for (const std::size_t nb : nbrs) acc += belief[nb];
        const double propagated = acc / static_cast<double>(nbrs.size());
        if (seed[i] >= 0.0) {
          // Labeled nodes stay anchored to their observation.
          next[i] =
              (1.0 - params_.alpha) * propagated + params_.alpha * seed[i];
        } else {
          next[i] = propagated;
        }
      }
      belief.swap(next);
    }

    // Measure the unlabeled nodes believed most likely to be top
    // (lower = better for top_unmeasured).
    PoolRanking ranking;
    ranking.scores.resize(pool_size);
    for (std::size_t i = 0; i < pool_size; ++i) {
      ranking.scores[i] = -belief[i];
    }
    // Label propagation is this tuner's model step; report as fit_s.
    ranking.fit_s = propagate_span.stop();
    return ranking;
  }

  // Final surrogate for the searcher, trained on everything measured —
  // the same model family all algorithms use (§7.3).
  std::vector<double> final_scores() override {
    Surrogate surrogate(problem_.surrogate_gbt);
    fit_on_measured(surrogate, collector_, *rng_, pool_.features());
    telemetry::ScopedSpan predict_span(problem_.telemetry,
                                       "surrogate.predict");
    return pool_.surrogate_scores(surrogate);
  }

  GeistParams params_;
  std::shared_ptr<const PoolGraph> graph_;
};

}  // namespace

std::unique_ptr<TunerStepper> Geist::make_stepper(const TuningProblem& problem,
                                                  std::size_t budget_runs,
                                                  ceal::Rng& rng) const {
  return std::make_unique<GeistStepper>(*this, params_, problem, budget_runs,
                                        rng);
}

}  // namespace ceal::tuner
