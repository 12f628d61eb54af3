#include "tuner/low_fidelity.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>

#include "core/error.h"
#include "core/shared_memo.h"
#include "ml/dataset.h"

namespace ceal::tuner {

namespace {

/// Everything a component set fit reads. Features are value casts of the
/// configurations (ConfigSpace::features) and every component model
/// log-transforms its targets, so equal inputs give equal models; the
/// workflow and the objective add nothing once the targets are known.
struct FitInput {
  ml::GbtParams gbt;
  std::vector<std::vector<config::Configuration>> configs;  ///< [j][k]
  std::vector<std::vector<double>> targets;                 ///< [j][k]

  /// Targets compare bit for bit, not by value.
  bool operator==(const FitInput& other) const {
    const auto same_bits = [](double a, double b) {
      return std::bit_cast<std::uint64_t>(a) ==
             std::bit_cast<std::uint64_t>(b);
    };
    return gbt == other.gbt && configs == other.configs &&
           std::ranges::equal(targets, other.targets,
                              [&](const auto& a, const auto& b) {
                                return std::ranges::equal(a, b, same_bits);
                              });
  }
};

FitInput gather(const sim::InSituWorkflow& workflow, Objective objective,
                const std::vector<ComponentSamples>& samples,
                const std::vector<std::vector<std::size_t>>& sample_indices,
                const ml::GbtParams& gbt) {
  CEAL_EXPECT(samples.size() == workflow.component_count());
  CEAL_EXPECT(sample_indices.size() == samples.size());
  FitInput in{gbt, {}, {}};
  in.configs.resize(samples.size());
  in.targets.resize(samples.size());
  for (std::size_t j = 0; j < samples.size(); ++j) {
    CEAL_EXPECT_MSG(!sample_indices[j].empty(),
                    "component model needs at least one sample");
    const auto& values = samples[j].measured(objective);
    in.configs[j].reserve(sample_indices[j].size());
    in.targets[j].reserve(sample_indices[j].size());
    for (const std::size_t idx : sample_indices[j]) {
      CEAL_EXPECT(idx < samples[j].size());
      in.configs[j].push_back(samples[j].configs[idx]);
      in.targets[j].push_back(values[idx]);
    }
  }
  return in;
}

using Models = std::vector<std::shared_ptr<const Surrogate>>;

Models fit_models(const sim::InSituWorkflow& workflow, const FitInput& in,
                  ceal::Rng& rng) {
  Models models;
  models.reserve(in.configs.size());
  for (std::size_t j = 0; j < in.configs.size(); ++j) {
    auto model = std::make_shared<Surrogate>(in.gbt);
    model->fit(workflow.app(j).space(), in.configs[j], in.targets[j], rng);
    models.push_back(std::move(model));
  }
  return models;
}

/// The fit_shared memo, keyed on the exact fit input.
SharedMemo<FitInput, Models, kSharedComponentFits> shared_fits;

/// Everything a set's prediction pass over a pool reads, as a caller
/// asks for it: the models and the matrix are borrowed.
struct PredictionProbe {
  const Models& models;
  std::span<const std::size_t> first_columns;  ///< slice_range(j).first
  const ml::FeatureMatrix& joint;
};

/// A PredictionProbe as the memo holds it. Holding the models keeps
/// their addresses from being reused by a later fit.
struct PredictionKey {
  explicit PredictionKey(const PredictionProbe& probe)
      : models(probe.models),
        first_columns(probe.first_columns.begin(), probe.first_columns.end()),
        joint(probe.joint) {}

  /// Models by identity, the matrix bit for bit.
  bool operator==(const PredictionProbe& probe) const {
    const auto x = joint.values();
    const auto y = probe.joint.values();
    return models == probe.models &&
           std::ranges::equal(first_columns, probe.first_columns) &&
           joint.n_features() == probe.joint.n_features() &&
           x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size_bytes()) == 0;
  }

  Models models;
  std::vector<std::size_t> first_columns;
  ml::FeatureMatrix joint;
};

/// The predict_pool memo of history sets' prediction passes.
SharedMemo<PredictionKey, PoolPredictions, kSharedPoolPredictions>
    shared_predictions;

}  // namespace

ComponentModelSet::ComponentModelSet(
    const sim::InSituWorkflow& workflow, Objective objective,
    const std::vector<ComponentSamples>& samples,
    const std::vector<std::vector<std::size_t>>& sample_indices,
    ceal::Rng& rng, const ml::GbtParams& gbt)
    : ComponentModelSet(
          workflow,
          fit_models(workflow,
                     gather(workflow, objective, samples, sample_indices, gbt),
                     rng),
          false) {}

ComponentModelSet::ComponentModelSet(const sim::InSituWorkflow& workflow,
                                     Models models, bool shared)
    : workflow_(&workflow), models_(std::move(models)), shared_(shared) {}

std::shared_ptr<const ComponentModelSet> ComponentModelSet::fit_shared(
    const sim::InSituWorkflow& workflow, Objective objective,
    const std::vector<ComponentSamples>& samples,
    const std::vector<std::vector<std::size_t>>& sample_indices,
    ceal::Rng& rng, const ml::GbtParams& gbt) {
  FitInput in = gather(workflow, objective, samples, sample_indices, gbt);
  // Row or column subsampling draws from rng: such a fit is neither a
  // pure function of its input nor free to skip.
  if (gbt.subsample < 1.0 || gbt.tree.colsample < 1.0) {
    return std::shared_ptr<const ComponentModelSet>(
        new ComponentModelSet(workflow, fit_models(workflow, in, rng), false));
  }
  const auto models = shared_fits.get(
      in, [&](const FitInput& key) { return fit_models(workflow, key, rng); });
  return std::shared_ptr<const ComponentModelSet>(
      new ComponentModelSet(workflow, *models, true));
}

const Surrogate& ComponentModelSet::model(std::size_t j) const {
  CEAL_EXPECT(j < models_.size());
  return *models_[j];
}

double ComponentModelSet::predict(
    std::size_t j, const config::Configuration& component_config) const {
  CEAL_EXPECT(j < models_.size());
  return models_[j]->predict(workflow_->app(j).space(), component_config);
}

std::vector<double> ComponentModelSet::predict_many(
    std::size_t j, const ml::FeatureMatrix& joint) const {
  CEAL_EXPECT(j < models_.size());
  CEAL_EXPECT(joint.n_features() == workflow_->joint_space().dimension());
  return models_[j]->predict_many(joint,
                                  workflow_->space().slice_range(j).first);
}

PoolPredictions ComponentModelSet::predict_columns(
    const ml::FeatureMatrix& joint) const {
  PoolPredictions columns;
  columns.reserve(models_.size());
  for (std::size_t j = 0; j < models_.size(); ++j) {
    columns.push_back(predict_many(j, joint));
  }
  return columns;
}

std::shared_ptr<const PoolPredictions> ComponentModelSet::predict_pool(
    const ml::FeatureMatrix& joint) const {
  if (!shared_) {
    return std::make_shared<const PoolPredictions>(predict_columns(joint));
  }
  CEAL_EXPECT(joint.n_features() == workflow_->joint_space().dimension());
  std::vector<std::size_t> first_columns(models_.size());
  for (std::size_t j = 0; j < models_.size(); ++j) {
    first_columns[j] = workflow_->space().slice_range(j).first;
  }
  return shared_predictions.get(
      PredictionProbe{models_, first_columns, joint},
      [&](const PredictionKey& key) { return predict_columns(key.joint); });
}

std::size_t detail::shared_pool_predictions_built() {
  return shared_predictions.builds_started();
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
  // column window of the joint matrix in one (parallel) batch, or a
  // history set's earlier batch is reused. The per-row combine folds
  // components in ascending j, exactly like score(), so results match
  // the per-row path bitwise.
  const auto columns = components_->predict_pool(joint);
  std::vector<double> out(joint.size(), 0.0);
  for (const std::vector<double>& comp : *columns) {
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
