// GEIST baseline (§7.3): graph-guided semi-supervised exploration
// (Thiagarajan et al., "Bootstrapping parameter space exploration for
// fast tuning", ICS'18). A k-nearest-neighbour parameter graph is built
// over the pool; measured configurations seed binary labels ("likely in
// the top 5%" vs not), label propagation spreads belief across graph
// edges, and each iteration measures the unlabeled configurations with
// the highest propagated top-probability.
#pragma once

#include <memory>
#include <vector>

#include "tuner/autotuner.h"

namespace ceal::tuner {

/// Distinct pool graphs PoolGraph::shared keeps (LRU). The benches see
/// at most three: one pool per workflow.
inline constexpr std::size_t kSharedPoolGraphs = 4;

/// k-NN adjacency over pool configurations (min-max-normalised L2 over
/// the joint features, featurize_joint). Building it is O(N^2 d).
class PoolGraph {
 public:
  PoolGraph(const config::ConfigSpace& space,
            const std::vector<config::Configuration>& configs,
            std::size_t k_neighbors);

  /// The constructor's graph, built at most once per process for one
  /// key: `k_neighbors` and the configurations. Features are value casts
  /// of the configurations, so `space` is not part of the key. A
  /// process-wide SharedMemo (core/shared_memo.h) holds the last
  /// kSharedPoolGraphs keys, so sessions on one pool share one graph
  /// and concurrent misses make one build.
  static std::shared_ptr<const PoolGraph> shared(
      const config::ConfigSpace& space,
      const std::vector<config::Configuration>& configs,
      std::size_t k_neighbors);

  std::size_t size() const { return neighbors_.size(); }
  const std::vector<std::size_t>& neighbors(std::size_t i) const;

 private:
  std::vector<std::vector<std::size_t>> neighbors_;
};

namespace detail {
/// Test seam: the graphs PoolGraph::shared has started building in this
/// process (memo misses).
std::size_t shared_pool_graphs_built();
}  // namespace detail

struct GeistParams {
  std::size_t iterations = 8;
  double init_fraction = 0.25;
  std::size_t k_neighbors = 10;
  /// Propagation mixing weight (label retention is 1 - alpha).
  double alpha = 0.85;
  std::size_t propagation_iters = 30;
  /// A measured configuration counts as "top" when its value falls in
  /// this quantile of the measurements seen so far (paper: top 5%).
  double top_quantile = 0.05;
  /// A pre-built graph of this pool and k_neighbors; when null the
  /// session takes PoolGraph::shared's. Besides tests, only the
  /// end-to-end benchmark sets it, to build its graphs outside the timed
  /// sessions.
  std::shared_ptr<const PoolGraph> graph;
};

class Geist final : public AutoTuner {
 public:
  explicit Geist(GeistParams params = {});

  std::string name() const override { return "GEIST"; }

  std::unique_ptr<TunerStepper> make_stepper(const TuningProblem& problem,
                                             std::size_t budget_runs,
                                             ceal::Rng& rng) const override;

 private:
  GeistParams params_;
};

}  // namespace ceal::tuner
