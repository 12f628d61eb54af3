// Phase 1 of the bootstrapping method (§4): component performance models
// plus the analytical coupling model that combines them into the
// low-fidelity workflow model M_L.
//
// Each component model is a boosted-tree regressor over the component's
// own (small) configuration space, trained on solo-run measurements. The
// combination function follows the objective:
//   execution time  -> Score_e(c) = max_j t_e(c_j)   (Eqn. 1)
//   computer  time  -> Score_c(c) = sum_j t_c(c_j)   (Eqn. 2)
//
// A pool is scored from its joint feature matrix alone. Each c_j is the
// contiguous column range CompositeSpace::slice_range(j) of the joint
// configuration, and features are plain value casts, so component j's
// model reads its columns of the joint matrix in place: no slice is
// copied or featurized a second time.
//
// With free history, M_L depends only on the history, so its pool scores
// depend only on the history and the pool. History sets come from
// ComponentModelSet::fit_shared's memo, and their per-component
// predictions over a pool come from a second one (predict_pool): sessions
// that score one pool with one history fit make one prediction pass. The
// objective's max/sum fold runs per call on the shared columns.
#pragma once

#include <memory>
#include <vector>

#include "ml/dataset.h"
#include "tuner/measured_pool.h"
#include "tuner/objective.h"
#include "tuner/surrogate.h"

namespace ceal::tuner {

/// Distinct history fits ComponentModelSet::fit_shared keeps (LRU).
/// The benches see at most six: three workflows times two objectives.
inline constexpr std::size_t kSharedComponentFits = 8;

/// Distinct (history fit, pool) prediction passes
/// ComponentModelSet::predict_pool keeps (LRU). An entry holds a copy of
/// the pool's joint matrix as its key, so the bound matches
/// kSharedPoolGraphs rather than kSharedComponentFits.
inline constexpr std::size_t kSharedPoolPredictions = 4;

/// Every component's prediction column over a pool, [j][i]: component j
/// at row i of the pool's joint feature matrix.
using PoolPredictions = std::vector<std::vector<double>>;

/// One trained performance model per workflow component. The models are
/// immutable once fitted, so sets may share them: every set built by
/// fit_shared from equal fit inputs holds the same Surrogate objects.
class ComponentModelSet {
 public:
  /// Trains a model per component for `objective`, using the component
  /// samples selected by `sample_indices` (one index list per component;
  /// indices address the ComponentSamples arrays). Every component needs
  /// at least one sample. `gbt` configures the per-component boosted
  /// trees (TuningProblem::surrogate_gbt).
  ComponentModelSet(
      const sim::InSituWorkflow& workflow, Objective objective,
      const std::vector<ComponentSamples>& samples,
      const std::vector<std::vector<std::size_t>>& sample_indices,
      ceal::Rng& rng,
      const ml::GbtParams& gbt = ml::GradientBoostedTrees::surrogate_defaults());

  /// The constructor's models, fitted at most once per process for one
  /// fit input: each component's training configurations, its target
  /// values bit for bit, and `gbt`. A later call with an equal input
  /// (from any objects, on any thread) reuses the earlier call's models.
  /// This is exact because such a fit draws no random numbers; when
  /// `gbt` subsamples rows or columns it does, so the call fits afresh
  /// and advances `rng` as the constructor would. A process-wide
  /// SharedMemo (core/shared_memo.h) holds the last kSharedComponentFits
  /// inputs, so calls that miss on one input at once make one fit.
  static std::shared_ptr<const ComponentModelSet> fit_shared(
      const sim::InSituWorkflow& workflow, Objective objective,
      const std::vector<ComponentSamples>& samples,
      const std::vector<std::vector<std::size_t>>& sample_indices,
      ceal::Rng& rng, const ml::GbtParams& gbt);

  std::size_t component_count() const { return models_.size(); }

  /// The fitted model of component j.
  const Surrogate& model(std::size_t j) const;

  /// Predicted solo objective value of component j at its local
  /// configuration.
  double predict(std::size_t j, const config::Configuration& component_config)
      const;

  /// Batch predictions of component j over the pool's joint feature
  /// matrix, read at the columns slice_range(j) of each row. Bitwise
  /// equal to predict() on each row's slice.
  std::vector<double> predict_many(std::size_t j,
                                   const ml::FeatureMatrix& joint) const;

  /// predict_many(j, joint) for every component j, bitwise. A set whose
  /// models came from fit_shared's memo reads a process-wide SharedMemo
  /// of the last kSharedPoolPredictions passes, keyed exactly on the
  /// models (held, so their identity is never reused), each component's
  /// first column slice_range(j).first, and the matrix's bits; calls
  /// that miss on one key at once make one pass. Any other set is
  /// fitted per session, so it predicts here and keeps nothing.
  std::shared_ptr<const PoolPredictions> predict_pool(
      const ml::FeatureMatrix& joint) const;

 private:
  using Models = std::vector<std::shared_ptr<const Surrogate>>;
  ComponentModelSet(const sim::InSituWorkflow& workflow, Models models,
                    bool shared);

  PoolPredictions predict_columns(const ml::FeatureMatrix& joint) const;

  const sim::InSituWorkflow* workflow_;
  Models models_;
  bool shared_;  ///< models_ came from fit_shared's memo
};

namespace detail {
/// Test seam: the prediction passes ComponentModelSet::predict_pool has
/// started in its memo in this process (misses).
std::size_t shared_pool_predictions_built();
}  // namespace detail

/// The analytical coupling model over component predictions: the
/// low-fidelity model M_L used to score (rank) configurations.
class LowFidelityModel {
 public:
  LowFidelityModel(const sim::InSituWorkflow& workflow, Objective objective,
                   std::shared_ptr<const ComponentModelSet> components);

  /// Score of a joint configuration (lower is better). Only meaningful
  /// for ranking, not as a time prediction (§4).
  double score(const config::Configuration& joint) const;

  /// Scores for every row of a joint feature matrix (featurize_joint
  /// over the workflow's joint space); bitwise equal to score() per
  /// row, but slices and featurizes nothing. Folds the components'
  /// predict_pool columns, so a history set's repeat pool costs a
  /// lookup and the fold.
  std::vector<double> score_many(const ml::FeatureMatrix& joint) const;

 private:
  const sim::InSituWorkflow* workflow_;
  Objective objective_;
  std::shared_ptr<const ComponentModelSet> components_;
};

}  // namespace ceal::tuner
