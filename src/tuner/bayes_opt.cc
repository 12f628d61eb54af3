#include "tuner/bayes_opt.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "core/error.h"
#include "core/stats.h"
#include "core/telemetry.h"
#include "ml/dataset.h"
#include "ml/gbt.h"
#include "tuner/collector.h"
#include "tuner/low_fidelity.h"
#include "tuner/pool_features.h"
#include "tuner/stepper.h"
#include "tuner/tuning_util.h"

namespace ceal::tuner {

namespace {

/// Bootstrapped boosted-tree ensemble over log targets.
class Ensemble {
 public:
  Ensemble(std::size_t members, ceal::Rng& rng)
      : members_(members), rng_(&rng) {
    CEAL_EXPECT(members >= 2);
  }

  void fit(const config::ConfigSpace& space,
           const std::vector<config::Configuration>& configs,
           std::span<const double> targets) {
    CEAL_EXPECT(!configs.empty());
    models_.clear();
    models_.reserve(members_);
    const std::size_t n = configs.size();
    ml::GbtParams params = ml::GradientBoostedTrees::surrogate_defaults();
    params.n_rounds = 80;  // ensembles amortise the rounds
    for (std::size_t k = 0; k < members_; ++k) {
      ml::Dataset data(space.dimension());
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t pick = rng_->uniform_u64(n);  // bootstrap
        CEAL_EXPECT(targets[pick] > 0.0);
        data.add(space.features(configs[pick]), std::log(targets[pick]));
      }
      ml::GradientBoostedTrees model(params);
      model.fit(data, *rng_);
      models_.push_back(std::move(model));
    }
  }

  bool is_fitted() const { return !models_.empty(); }

  /// Mean and standard deviation of the ensemble in *time* units for
  /// every row, from one batch prediction per member.
  void predict(const ml::FeatureMatrix& rows, std::vector<double>& mu,
               std::vector<double>& sigma) const {
    std::vector<std::vector<double>> member;
    member.reserve(models_.size());
    for (const auto& model : models_) {
      member.push_back(model.predict_matrix(rows));
    }
    mu.resize(rows.size());
    sigma.resize(rows.size());
    std::vector<double> preds(models_.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      for (std::size_t k = 0; k < models_.size(); ++k) {
        preds[k] = std::exp(member[k][i]);
      }
      mu[i] = ceal::mean(preds);
      sigma[i] = preds.size() >= 2 ? ceal::stddev(preds) : 0.0;
    }
  }

 private:
  std::size_t members_;
  ceal::Rng* rng_;
  std::vector<ml::GradientBoostedTrees> models_;
};

}  // namespace

BayesOpt::BayesOpt(BayesOptParams params) : params_(params) {
  CEAL_EXPECT(params_.iterations >= 1);
  CEAL_EXPECT(params_.init_fraction > 0.0 && params_.init_fraction <= 1.0);
  CEAL_EXPECT(params_.ensemble_size >= 2);
  CEAL_EXPECT(params_.kappa >= 0.0);
  CEAL_EXPECT(params_.mR_fraction >= 0.0 && params_.mR_fraction < 1.0);
}

namespace {

// BO sliced at its natural boundaries: the initial design (random or
// low-fidelity-seeded), one fit/acquire/measure refinement per step, the
// final exploration-free ranking.
class BayesOptStepper final : public TunerStepper {
 public:
  BayesOptStepper(const BayesOpt& algorithm, const BayesOptParams& params,
                  const TuningProblem& problem, std::size_t budget_runs,
                  ceal::Rng& rng)
      : TunerStepper(problem, budget_runs, rng),
        params_(params),
        collector_(problem_, budget_runs, rng_),
        ensemble_(params_.ensemble_size, *rng_) {
    emit_tune_start(problem_, algorithm, budget_);
  }

  TunerProgress progress() const override {
    return collector_progress(collector_);
  }

 private:
  enum class Phase { kInit, kLoop, kFinal };

  double refit() {
    telemetry::Telemetry* tel = problem_.telemetry;
    if (tel != nullptr) tel->count("surrogate.fits");
    telemetry::ScopedSpan span(tel, "surrogate.fit");
    train_configs_.clear();
    for (const std::size_t i : collector_.ok_indices()) {
      train_configs_.push_back(problem_.pool->configs[i]);
    }
    ensemble_.fit(problem_.workload->workflow.joint_space(), train_configs_,
                  collector_.ok_values());
    return span.stop();
  }

  void do_step() override {
    telemetry::Telemetry* tel = problem_.telemetry;
    const auto& workflow = problem_.workload->workflow;
    if (phase_ == Phase::kInit) {
      // Initial design: random, or bootstrapped by the low-fidelity model.
      const auto init = std::max<std::size_t>(
          2, static_cast<std::size_t>(std::llround(
                 params_.init_fraction * static_cast<double>(budget_))));
      if (params_.bootstrap_with_low_fidelity) {
        const std::vector<std::vector<std::size_t>>* component_indices;
        if (problem_.components_are_history) {
          component_indices = &collector_.all_component_samples();
        } else {
          const auto m_r = std::clamp<std::size_t>(
              static_cast<std::size_t>(std::llround(
                  params_.mR_fraction * static_cast<double>(budget_))),
              1, budget_ - 2);
          component_indices =
              &collector_.acquire_component_samples(m_r, *rng_);
        }
        auto components = std::make_shared<const ComponentModelSet>(
            workflow, problem_.objective, *problem_.component_samples,
            *component_indices, *rng_);
        const LowFidelityModel low_fidelity(workflow, problem_.objective,
                                            components);
        const auto low_scores = low_fidelity.score_many(pool_features());
        measure_batch(collector_,
                      top_unmeasured(low_scores, collector_,
                                     std::min(init, collector_.remaining())));
      } else {
        measure_batch(collector_,
                      random_unmeasured(collector_, init, *rng_));
      }
      batch_size_ = std::max<std::size_t>(
          1, (budget_ - std::min(init, budget_)) / params_.iterations);
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
          emit_iteration_event(problem_, "bo.iteration", iteration_++,
                               collector_, req_start, ok_start, 0.0, 0.0);
          return;  // one iteration per step
        }
        const double fit_s = refit();
        // LCB acquisition: optimistic lower bound, lower = more
        // attractive.
        telemetry::ScopedSpan predict_span(tel, "surrogate.predict");
        std::vector<double> acquisition, sigma;
        ensemble_.predict(pool_features(), acquisition, sigma);
        for (std::size_t i = 0; i < acquisition.size(); ++i) {
          acquisition[i] -= params_.kappa * sigma[i];
        }
        const double predict_s = predict_span.stop();
        const auto batch =
            top_unmeasured(acquisition, collector_, batch_size_);
        if (batch.empty()) break;
        measure_batch(collector_, batch, acquisition, batch_size_);
        emit_iteration_event(problem_, "bo.iteration", iteration_++,
                             collector_, req_start, ok_start, fit_s,
                             predict_s);
        return;  // one iteration per step
      }
      phase_ = Phase::kFinal;
    }

    // Final ranking uses the ensemble mean (no exploration bonus).
    refit();
    telemetry::ScopedSpan final_span(tel, "surrogate.predict");
    std::vector<double> scores, sigma;
    ensemble_.predict(pool_features(), scores, sigma);
    final_span.stop();
    finish(finalize_result(collector_, std::move(scores)));
  }

  /// The pool's joint feature matrix, built on first use.
  const ml::FeatureMatrix& pool_features() {
    if (!pool_features_) {
      pool_features_.emplace(
          featurize_joint(problem_.workload->workflow.joint_space(),
                          problem_.pool->configs));
    }
    return *pool_features_;
  }

  BayesOptParams params_;
  Collector collector_;
  Ensemble ensemble_;
  std::optional<ml::FeatureMatrix> pool_features_;
  std::vector<config::Configuration> train_configs_;
  Phase phase_ = Phase::kInit;
  std::size_t batch_size_ = 1;
  std::size_t iteration_ = 0;
};

}  // namespace

std::unique_ptr<TunerStepper> BayesOpt::make_stepper(
    const TuningProblem& problem, std::size_t budget_runs,
    ceal::Rng& rng) const {
  return std::make_unique<BayesOptStepper>(*this, params_, problem,
                                           budget_runs, rng);
}

}  // namespace ceal::tuner
