#include "tuner/alph.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "core/error.h"
#include "core/telemetry.h"
#include "ml/dataset.h"
#include "ml/gbt.h"
#include "tuner/collector.h"
#include "tuner/low_fidelity.h"
#include "tuner/pool_features.h"
#include "tuner/stepper.h"
#include "tuner/tuning_util.h"

namespace ceal::tuner {

Alph::Alph(AlphParams params) : params_(params) {
  CEAL_EXPECT(params_.iterations >= 1);
  CEAL_EXPECT(params_.init_fraction > 0.0 && params_.init_fraction <= 1.0);
  CEAL_EXPECT(params_.component_fraction >= 0.0 &&
              params_.component_fraction < 1.0);
}

namespace {

// ALpH sliced at its natural boundaries: component-model training plus
// pool featurization first, the random warm-up, one fit/score/measure
// refinement per step, the final fit.
class AlphStepper final : public TunerStepper {
 public:
  AlphStepper(const Alph& algorithm, const AlphParams& params,
              const TuningProblem& problem, std::size_t budget_runs,
              ceal::Rng& rng)
      : TunerStepper(problem, budget_runs, rng),
        params_(params),
        collector_(problem_, budget_runs, rng_),
        model_(ml::GradientBoostedTrees::surrogate_defaults()) {
    emit_tune_start(problem_, algorithm, budget_);
  }

  TunerProgress progress() const override {
    return collector_progress(collector_);
  }

 private:
  enum class Phase { kComponents, kWarmup, kLoop, kFinal };

  // Same log-target treatment as Surrogate (times span decades). Only
  // successful measurements train the model — failed entries carry no
  // value, and the positivity guard keeps NaN/Inf out of the fit.
  double fit() {
    telemetry::Telemetry* tel = problem_.telemetry;
    if (tel != nullptr) tel->count("surrogate.fits");
    telemetry::ScopedSpan span(tel, "surrogate.fit");
    const auto& indices = collector_.ok_indices();
    const auto& values = collector_.ok_values();
    ml::Dataset data(pool_features_->n_features());
    for (std::size_t s = 0; s < indices.size(); ++s) {
      CEAL_EXPECT(std::isfinite(values[s]) && values[s] > 0.0);
      data.add(pool_features_->row(indices[s]), std::log(values[s]));
    }
    model_.fit(data, *rng_);
    return span.stop();
  }

  std::vector<double> predict_pool(double* elapsed_s = nullptr) {
    telemetry::ScopedSpan span(problem_.telemetry, "surrogate.predict");
    std::vector<double> scores = model_.predict_matrix(*pool_features_);
    for (double& score : scores) score = std::exp(score);
    const double s = span.stop();
    if (elapsed_s != nullptr) *elapsed_s = s;
    return scores;
  }

  void do_step() override {
    const auto& workflow = problem_.workload->workflow;
    if (phase_ == Phase::kComponents) {
      // Component models: free history when available, otherwise charged
      // runs.
      const std::vector<std::vector<std::size_t>>* component_indices =
          nullptr;
      if (problem_.components_are_history) {
        component_indices = &collector_.all_component_samples();
      } else {
        const auto rounds = std::max<std::size_t>(
            1, static_cast<std::size_t>(
                   std::llround(params_.component_fraction *
                                static_cast<double>(budget_))));
        component_indices =
            &collector_.acquire_component_samples(rounds, *rng_);
      }
      components_ = std::make_unique<ComponentModelSet>(
          workflow, problem_.objective, *problem_.component_samples,
          *component_indices, *rng_);

      // Pre-compute the augmented feature rows for the whole pool once:
      // the joint features, then one column per component model's
      // prediction, each a batch over its columns of the joint matrix.
      const ml::FeatureMatrix joint =
          featurize_joint(workflow.joint_space(), problem_.pool->configs);
      const std::size_t dim = joint.n_features();
      pool_features_.emplace(dim + workflow.component_count(), joint.size());
      for (std::size_t i = 0; i < joint.size(); ++i) {
        std::ranges::copy(joint.row(i), pool_features_->mutable_row(i).begin());
      }
      for (std::size_t j = 0; j < workflow.component_count(); ++j) {
        const std::vector<double> predicted =
            components_->predict_many(j, joint);
        for (std::size_t i = 0; i < predicted.size(); ++i) {
          pool_features_->mutable_row(i)[dim + j] = predicted[i];
        }
      }
      phase_ = Phase::kWarmup;
      return;
    }
    if (phase_ == Phase::kWarmup) {
      const auto warmup = std::max<std::size_t>(
          2, static_cast<std::size_t>(std::llround(
                 params_.init_fraction * static_cast<double>(budget_))));
      measure_batch(collector_, random_unmeasured(collector_, warmup, *rng_));
      batch_size_ = std::max<std::size_t>(
          1, (budget_ - std::min(warmup, budget_)) / params_.iterations);
      phase_ = Phase::kLoop;
      return;
    }
    if (phase_ == Phase::kLoop) {
      while (collector_.remaining() > 0) {
        const std::size_t req_start = collector_.measured_indices().size();
        const std::size_t ok_start = collector_.ok_values().size();
        if (collector_.ok_indices().empty()) {
          const auto batch =
              random_unmeasured(collector_, batch_size_, *rng_);
          if (batch.empty()) break;
          measure_batch(collector_, batch);
          emit_iteration_event(problem_, "alph.iteration", iteration_++,
                               collector_, req_start, ok_start, 0.0, 0.0);
          return;  // one iteration per step
        }
        const double fit_s = fit();
        double predict_s = 0.0;
        const auto scores = predict_pool(&predict_s);
        const auto batch = top_unmeasured(scores, collector_, batch_size_);
        if (batch.empty()) break;
        measure_batch(collector_, batch, scores, batch_size_);
        emit_iteration_event(problem_, "alph.iteration", iteration_++,
                             collector_, req_start, ok_start, fit_s,
                             predict_s);
        return;  // one iteration per step
      }
      phase_ = Phase::kFinal;
    }

    fit();
    finish(finalize_result(collector_, predict_pool()));
  }

  AlphParams params_;
  Collector collector_;
  ml::GradientBoostedTrees model_;
  std::unique_ptr<ComponentModelSet> components_;
  std::optional<ml::FeatureMatrix> pool_features_;
  Phase phase_ = Phase::kComponents;
  std::size_t batch_size_ = 1;
  std::size_t iteration_ = 0;
};

}  // namespace

std::unique_ptr<TunerStepper> Alph::make_stepper(const TuningProblem& problem,
                                                 std::size_t budget_runs,
                                                 ceal::Rng& rng) const {
  return std::make_unique<AlphStepper>(*this, params_, problem, budget_runs,
                                       rng);
}

}  // namespace ceal::tuner
