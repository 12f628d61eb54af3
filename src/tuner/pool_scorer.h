// Pool scoring behind one interface.
//
// The tuners score the whole candidate pool C_pool with their models:
// the high-fidelity surrogate, and for CEAL the low-fidelity combination
// model. A PoolScorer featurizes the pool once into one joint feature
// matrix (tuner/pool_features.h) and every scoring pass reads it; a
// component model reads its columns of it (tuner/low_fidelity.h). That
// matrix is the pool's only featurization: tuners that train on pool
// rows (fit_on_measured, BO's bootstrap members) or extend them (ALpH's
// augmented columns) read features() too.
#pragma once

#include <span>
#include <vector>

#include "config/config_space.h"
#include "ml/dataset.h"

namespace ceal::sim {
class InSituWorkflow;
}

namespace ceal::telemetry {
class Telemetry;
}

namespace ceal::tuner {

class LowFidelityModel;
class Surrogate;

class PoolScorer {
 public:
  PoolScorer(const config::ConfigSpace& joint_space,
             std::span<const config::Configuration> configs);

  /// Adapter for the benchmark's older call shape: requires
  /// `chunk_rows == 0`, ignores `telemetry`, and scores over
  /// workflow.joint_space(). New code uses the constructor above.
  PoolScorer(const sim::InSituWorkflow& workflow,
             std::span<const config::Configuration> configs,
             std::size_t chunk_rows, telemetry::Telemetry* telemetry);

  std::size_t size() const { return features_.size(); }

  /// The pool's joint feature matrix: row i is
  /// joint_space.features(configs[i]).
  const ml::FeatureMatrix& features() const { return features_; }

  /// Surrogate predictions for every pool configuration.
  std::vector<double> surrogate_scores(const Surrogate& surrogate) const;

  /// Low-fidelity combination-model scores for every pool configuration.
  /// The model's workflow must have this scorer's joint space.
  std::vector<double> low_fidelity_scores(const LowFidelityModel& model)
      const;

 private:
  ml::FeatureMatrix features_;
};

}  // namespace ceal::tuner
