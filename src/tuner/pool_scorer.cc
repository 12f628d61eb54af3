#include "tuner/pool_scorer.h"

#include "core/error.h"
#include "sim/workflow.h"
#include "tuner/low_fidelity.h"
#include "tuner/pool_features.h"
#include "tuner/surrogate.h"

namespace ceal::tuner {

PoolScorer::PoolScorer(const config::ConfigSpace& joint_space,
                       std::span<const config::Configuration> configs)
    : features_(featurize_joint(joint_space, configs)) {}

PoolScorer::PoolScorer(const sim::InSituWorkflow& workflow,
                       std::span<const config::Configuration> configs,
                       std::size_t chunk_rows,
                       telemetry::Telemetry* /*telemetry*/)
    : PoolScorer(workflow.joint_space(), configs) {
  CEAL_EXPECT(chunk_rows == 0);
}

std::vector<double> PoolScorer::surrogate_scores(
    const Surrogate& surrogate) const {
  return surrogate.predict_many(features_);
}

std::vector<double> PoolScorer::low_fidelity_scores(
    const LowFidelityModel& model) const {
  return model.score_many(features_);
}

}  // namespace ceal::tuner
