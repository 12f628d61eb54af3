#include "tuner/pool_scorer.h"

#include <algorithm>

#include "core/error.h"
#include "tuner/low_fidelity.h"
#include "tuner/pool_features.h"
#include "tuner/surrogate.h"

namespace ceal::tuner {

PoolScorer::PoolScorer(const sim::InSituWorkflow& workflow,
                       std::span<const config::Configuration> configs,
                       std::size_t chunk_rows,
                       telemetry::Telemetry* telemetry)
    : PoolScorer(workflow.joint_space(), configs, chunk_rows, telemetry) {}

PoolScorer::PoolScorer(const config::ConfigSpace& joint_space,
                       std::span<const config::Configuration> configs,
                       std::size_t chunk_rows,
                       telemetry::Telemetry* telemetry)
    : joint_space_(&joint_space),
      configs_(configs),
      chunk_rows_(chunk_rows),
      telemetry_(telemetry) {
  if (chunk_rows_ == 0) cached_.emplace(featurize_joint(joint_space, configs));
}

template <typename Score>
std::vector<double> PoolScorer::score_pool(const Score& score) const {
  if (!streaming()) return score(*cached_);
  std::vector<double> out(configs_.size());
  featurize_joint_chunked(
      *joint_space_, configs_, chunk_rows_,
      [&](std::size_t first, const ml::FeatureMatrix& block) {
        const std::vector<double> scores = score(block);
        std::copy(scores.begin(), scores.end(), out.begin() + first);
      },
      telemetry_);
  return out;
}

std::vector<double> PoolScorer::surrogate_scores(
    const Surrogate& surrogate) const {
  return score_pool([&](const ml::FeatureMatrix& rows) {
    return surrogate.predict_many(rows);
  });
}

std::vector<double> PoolScorer::low_fidelity_scores(
    const LowFidelityModel& model) const {
  return score_pool(
      [&](const ml::FeatureMatrix& rows) { return model.score_many(rows); });
}

std::span<const double> PoolScorer::joint_row(std::size_t index) const {
  CEAL_EXPECT(index < configs_.size());
  if (!streaming()) return cached_->row(index);
  row_scratch_ = joint_space_->features(configs_[index]);
  return row_scratch_;
}

}  // namespace ceal::tuner
