// Surrogate model over joint workflow configurations: a boosted-tree
// regressor plus the configuration->feature encoding.
#pragma once

#include <span>
#include <vector>

#include "config/config_space.h"
#include "ml/gbt.h"

namespace ceal::tuner {

class Surrogate {
 public:
  /// `log_targets`: train on log(y) and exponentiate predictions.
  /// Execution/computer times span several orders of magnitude across a
  /// configuration space; the log transform makes that multiplicative
  /// structure additive, so a handful of samples generalises far better.
  explicit Surrogate(
      ml::GbtParams params = ml::GradientBoostedTrees::surrogate_defaults(),
      bool log_targets = true);

  /// Retrains from scratch on the given configurations and objective
  /// values. Requires equal, non-zero sizes.
  void fit(const config::ConfigSpace& space,
           std::span<const config::Configuration> configs,
           std::span<const double> targets, ceal::Rng& rng);

  /// Retrains from scratch on rows `rows` of an already-featurized
  /// matrix (repeats allowed), target k belonging to row rows[k].
  /// Equals the configuration overload on the configurations the rows
  /// were featurized from.
  void fit(const ml::FeatureMatrix& features,
           std::span<const std::size_t> rows,
           std::span<const double> targets, ceal::Rng& rng);

  bool is_fitted() const { return model_.is_fitted(); }

  /// The boosted trees over log (or raw) targets.
  const ml::GradientBoostedTrees& model() const { return model_; }

  double predict(const config::ConfigSpace& space,
                 const config::Configuration& c) const;

  /// Prediction from an already-featurized row (one row of a cached
  /// pool matrix). Equals predict() on the configuration the row was
  /// featurized from.
  double predict_features(std::span<const double> features) const;

  /// Batch predictions from a feature matrix, parallel over rows
  /// (bitwise equal to predict() per row for any worker count). The
  /// model's features are the matrix columns starting at first_column,
  /// so a component model scores its slice of a joint pool matrix.
  std::vector<double> predict_many(const ml::FeatureMatrix& rows,
                                   std::size_t first_column = 0) const;

  /// Forwards a (concurrency-safe, nullable) telemetry registry to the
  /// underlying boosted-tree model, which records per-round fit spans,
  /// split-search counters, and batch-predict throughput (ml/gbt.h).
  void set_telemetry(ceal::telemetry::Telemetry* telemetry) {
    model_.set_telemetry(telemetry);
  }

 private:
  /// The one training path: `row(k)` gives example k's features.
  template <typename Row>
  void fit_rows(std::size_t n_features, std::span<const double> targets,
                const Row& row, ceal::Rng& rng);

  ml::GradientBoostedTrees model_;
  bool log_targets_;
};

}  // namespace ceal::tuner
