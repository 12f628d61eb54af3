#include "tuner/low_fidelity.h"

#include <algorithm>

#include "core/error.h"
#include "ml/dataset.h"

namespace ceal::tuner {

ComponentModelSet::ComponentModelSet(
    const sim::InSituWorkflow& workflow, Objective objective,
    const std::vector<ComponentSamples>& samples,
    const std::vector<std::vector<std::size_t>>& sample_indices,
    ceal::Rng& rng, const ml::GbtParams& gbt)
    : workflow_(&workflow) {
  CEAL_EXPECT(samples.size() == workflow.component_count());
  CEAL_EXPECT(sample_indices.size() == samples.size());

  models_.reserve(samples.size());
  for (std::size_t j = 0; j < samples.size(); ++j) {
    CEAL_EXPECT_MSG(!sample_indices[j].empty(),
                    "component model needs at least one sample");
    const auto& space = workflow.app(j).space();
    const auto& values = samples[j].measured(objective);
    std::vector<config::Configuration> configs;
    std::vector<double> targets;
    configs.reserve(sample_indices[j].size());
    targets.reserve(sample_indices[j].size());
    for (const std::size_t idx : sample_indices[j]) {
      CEAL_EXPECT(idx < samples[j].size());
      configs.push_back(samples[j].configs[idx]);
      targets.push_back(values[idx]);
    }
    Surrogate model(gbt);
    model.fit(space, configs, targets, rng);
    models_.push_back(std::move(model));
  }
}

double ComponentModelSet::predict(
    std::size_t j, const config::Configuration& component_config) const {
  CEAL_EXPECT(j < models_.size());
  return models_[j].predict(workflow_->app(j).space(), component_config);
}

std::vector<double> ComponentModelSet::predict_many(
    std::size_t j, const ml::FeatureMatrix& joint) const {
  CEAL_EXPECT(j < models_.size());
  CEAL_EXPECT(joint.n_features() == workflow_->joint_space().dimension());
  return models_[j].predict_many(joint,
                                 workflow_->space().slice_range(j).first);
}

LowFidelityModel::LowFidelityModel(
    const sim::InSituWorkflow& workflow, Objective objective,
    std::shared_ptr<const ComponentModelSet> components)
    : workflow_(&workflow),
      objective_(objective),
      components_(std::move(components)) {
  CEAL_EXPECT(components_ != nullptr);
  CEAL_EXPECT(components_->component_count() == workflow.component_count());
}

double LowFidelityModel::score(const config::Configuration& joint) const {
  double combined = 0.0;  // max / sum seed, as in score_many
  for (std::size_t j = 0; j < workflow_->component_count(); ++j) {
    const double v =
        components_->predict(j, workflow_->space().slice(joint, j));
    if (objective_ == Objective::kExecTime) {
      combined = std::max(combined, v);
    } else {
      combined += v;
    }
  }
  return combined;
}

std::vector<double> LowFidelityModel::score_many(
    const ml::FeatureMatrix& joint) const {
  // Component-major evaluation: each component's surrogate scores its
  // column window of the joint matrix in one (parallel) batch. The
  // per-row combine folds components in ascending j, exactly like
  // score(), so results match the per-row path bitwise.
  std::vector<double> out(joint.size(), 0.0);
  for (std::size_t j = 0; j < workflow_->component_count(); ++j) {
    const std::vector<double> comp = components_->predict_many(j, joint);
    if (objective_ == Objective::kExecTime) {
      for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = std::max(out[i], comp[i]);
      }
    } else {
      for (std::size_t i = 0; i < out.size(); ++i) out[i] += comp[i];
    }
  }
  return out;
}

}  // namespace ceal::tuner
