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
#pragma once

#include <memory>
#include <vector>

#include "ml/dataset.h"
#include "tuner/measured_pool.h"
#include "tuner/objective.h"
#include "tuner/surrogate.h"

namespace ceal::tuner {

/// One trained performance model per workflow component.
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

  std::size_t component_count() const { return models_.size(); }

  /// Predicted solo objective value of component j at its local
  /// configuration.
  double predict(std::size_t j, const config::Configuration& component_config)
      const;

  /// Batch predictions of component j over the pool's joint feature
  /// matrix, read at the columns slice_range(j) of each row. Bitwise
  /// equal to predict() on each row's slice.
  std::vector<double> predict_many(std::size_t j,
                                   const ml::FeatureMatrix& joint) const;

 private:
  const sim::InSituWorkflow* workflow_;
  std::vector<Surrogate> models_;
};

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
  /// row, but slices and featurizes nothing.
  std::vector<double> score_many(const ml::FeatureMatrix& joint) const;

 private:
  const sim::InSituWorkflow* workflow_;
  Objective objective_;
  std::shared_ptr<const ComponentModelSet> components_;
};

}  // namespace ceal::tuner
