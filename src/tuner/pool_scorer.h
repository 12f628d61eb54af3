// Pool scoring behind one interface, cached or streaming.
//
// The tuners score the whole candidate pool C_pool with their models:
// the high-fidelity surrogate, and for CEAL the low-fidelity combination
// model. Both read one joint feature matrix; a component model reads its
// columns of it (tuner/low_fidelity.h). The cached mode (the default,
// chunk_rows == 0) featurizes the pool into that matrix once per tune()
// and emits no extra telemetry. The streaming mode (chunk_rows > 0)
// never holds more than one chunk_rows-sized block of features at a
// time: every scoring pass re-featurizes the pool block by block
// (featurize_joint_chunked), so a pool of millions of configurations is
// scored in bounded memory — the only O(pool) state is the score vector
// itself (8 bytes/row). Scores are bitwise identical between the two
// modes because featurization and both models are row-independent.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "config/config_space.h"
#include "ml/dataset.h"
#include "sim/workflow.h"

namespace ceal::telemetry {
class Telemetry;
}

namespace ceal::tuner {

class LowFidelityModel;
class Surrogate;

class PoolScorer {
 public:
  /// Scorer over the workflow's joint space; same as the joint-space
  /// constructor with workflow.joint_space().
  PoolScorer(const sim::InSituWorkflow& workflow,
             std::span<const config::Configuration> configs,
             std::size_t chunk_rows, telemetry::Telemetry* telemetry);

  /// `chunk_rows == 0` caches the whole pool's joint feature matrix up
  /// front; `chunk_rows >= 1` streams every scoring pass in blocks of
  /// that many rows. `telemetry` (nullable) only receives events in
  /// streaming mode.
  PoolScorer(const config::ConfigSpace& joint_space,
             std::span<const config::Configuration> configs,
             std::size_t chunk_rows, telemetry::Telemetry* telemetry);

  std::size_t size() const { return configs_.size(); }
  bool streaming() const { return chunk_rows_ > 0; }

  /// Surrogate predictions for every pool configuration.
  std::vector<double> surrogate_scores(const Surrogate& surrogate) const;

  /// Low-fidelity combination-model scores for every pool configuration.
  /// The model's workflow must have this scorer's joint space.
  std::vector<double> low_fidelity_scores(const LowFidelityModel& model)
      const;

  /// Joint feature row of one pool configuration (cached: a view into
  /// the pool matrix; streaming: featurized into an internal scratch
  /// row, valid until the next joint_row call).
  std::span<const double> joint_row(std::size_t index) const;

 private:
  /// Scores of every pool row by `score(block)` over the joint feature
  /// matrix: the cached matrix, or each streamed block in turn.
  template <typename Score>
  std::vector<double> score_pool(const Score& score) const;

  const config::ConfigSpace* joint_space_;
  std::span<const config::Configuration> configs_;
  std::size_t chunk_rows_;
  telemetry::Telemetry* telemetry_;

  std::optional<ml::FeatureMatrix> cached_;   // cached mode only
  mutable std::vector<double> row_scratch_;  // streaming joint_row
};

}  // namespace ceal::tuner
