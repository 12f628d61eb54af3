// Gradient-boosted regression trees with squared-error loss — a
// from-scratch stand-in for xgboost.XGBRegressor, which the paper uses as
// the surrogate model in every auto-tuning algorithm (§7.3).
#pragma once

#include <memory>
#include <vector>

#include "ml/model.h"
#include "ml/tree.h"

namespace ceal::telemetry {
class Telemetry;
}

namespace ceal::ml {

class CompiledForest;

struct GbtParams {
  std::size_t n_rounds = 100;
  double learning_rate = 0.1;
  /// Fraction of rows sampled per round (0 < subsample <= 1).
  double subsample = 1.0;
  TreeParams tree;
};

class GradientBoostedTrees final : public Regressor {
 public:
  explicit GradientBoostedTrees(GbtParams params = {});

  /// Surrogate-friendly defaults for the paper's tiny sample budgets
  /// (tens of samples): shallow trees, strong shrinkage.
  static GbtParams surrogate_defaults();

  void fit(const Dataset& data, ceal::Rng& rng) override;
  double predict(std::span<const double> features) const override;
  bool is_fitted() const override { return fitted_; }

  /// Batch prediction through the compiled forest, parallel over rows on
  /// the global thread pool. Each row descends the trees in ensemble
  /// order, so the result is bitwise identical to row-by-row predict()
  /// for any worker count.
  std::vector<double> predict_all(const Dataset& data) const override;

  /// Same as predict_all for a cached (target-less) feature matrix —
  /// the pool-scoring hot path of the tuners.
  std::vector<double> predict_matrix(const FeatureMatrix& rows) const;

  /// Attaches (or detaches, with nullptr) a concurrency-safe telemetry
  /// registry; not owned, must outlive the model's fits/predictions.
  /// fit() records "gbt.fits"/"gbt.rounds" counters and the "gbt.round"
  /// span (per-round wall clock); batch prediction records
  /// "gbt.predict.batches"/"gbt.predict.rows" and the "gbt.predict"
  /// span. Counter values are deterministic functions of the inputs;
  /// only span seconds carry wall-clock nondeterminism.
  void set_telemetry(ceal::telemetry::Telemetry* telemetry) {
    telemetry_ = telemetry;
  }
  ceal::telemetry::Telemetry* telemetry() const { return telemetry_; }

  std::size_t tree_count() const { return trees_.size(); }
  double base_score() const { return base_score_; }
  const GbtParams& params() const { return params_; }
  /// Trained member trees (for ml::save_gbt). Requires is_fitted().
  const std::vector<RegressionTree>& trees() const;

  /// Reassembles a fitted model from persisted parts (ml::load_gbt) and
  /// compiles its predictor.
  static GradientBoostedTrees from_parts(GbtParams params,
                                         double base_score,
                                         std::vector<RegressionTree> trees);

  /// The flattened predictor every prediction runs through, built by
  /// fit() and from_parts(); nullptr before fit(). Shared so copies of a
  /// fitted model alias one immutable node array instead of
  /// re-flattening.
  const CompiledForest* compiled() const { return compiled_.get(); }

 private:
  GbtParams params_;
  double base_score_ = 0.0;
  std::vector<RegressionTree> trees_;
  bool fitted_ = false;
  std::shared_ptr<const CompiledForest> compiled_;
  ceal::telemetry::Telemetry* telemetry_ = nullptr;
};

}  // namespace ceal::ml
