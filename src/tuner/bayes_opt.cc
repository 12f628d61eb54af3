#include "tuner/bayes_opt.h"

#include <algorithm>
#include <memory>

#include "core/error.h"
#include "core/stats.h"
#include "core/telemetry.h"
#include "tuner/active_learning.h"
#include "tuner/low_fidelity.h"
#include "tuner/pool_features.h"
#include "tuner/surrogate.h"
#include "tuner/tuning_util.h"

namespace ceal::tuner {

BayesOpt::BayesOpt(BayesOptParams params) : params_(params) {
  CEAL_EXPECT(params_.iterations >= 1);
  CEAL_EXPECT(params_.init_fraction > 0.0 && params_.init_fraction <= 1.0);
  CEAL_EXPECT(params_.ensemble_size >= 2);
  CEAL_EXPECT(params_.kappa >= 0.0);
  CEAL_EXPECT(params_.mR_fraction >= 0.0 && params_.mR_fraction < 1.0);
}

namespace {

/// Ensemble members: the problem's boosted trees with fewer rounds, since
/// the ensemble amortises them.
ml::GbtParams member_params(const TuningProblem& problem) {
  ml::GbtParams params = problem.surrogate_gbt;
  params.n_rounds = 80;
  return params;
}

// BO's ranker: a bootstrapped ensemble of surrogates over log targets.
// Each member trains on a bootstrap resample of the successful
// measurements, and the ensemble's spread estimates the predictive
// standard deviation.
class BayesOptStepper final : public ActiveLearningLoop {
 public:
  BayesOptStepper(const BayesOpt& algorithm, const BayesOptParams& params,
                  std::size_t m_r, const TuningProblem& problem,
                  std::size_t budget_runs, ceal::Rng& rng)
      : ActiveLearningLoop(algorithm, problem, budget_runs, rng,
                           "bo.iteration", params.iterations,
                           params.init_fraction),
        params_(params),
        m_r_(m_r),
        pool_features_(featurize_joint(
            problem_.workload->workflow.joint_space(),
            problem_.pool->configs)),
        members_(params_.ensemble_size, Surrogate(member_params(problem_))) {
    for (Surrogate& member : members_) member.set_telemetry(problem_.telemetry);
  }

 private:
  // Initial design: random, or bootstrapped by the low-fidelity model.
  std::vector<std::size_t> initial_batch(std::size_t count) override {
    if (!params_.bootstrap_with_low_fidelity) {
      return ActiveLearningLoop::initial_batch(count);
    }
    const LowFidelityModel low_fidelity(
        problem_.workload->workflow, problem_.objective,
        train_component_models(collector_, m_r_, *rng_));
    return top_unmeasured(low_fidelity.score_many(pool_features_), collector_,
                          std::min(count, collector_.remaining()));
  }

  // LCB acquisition: optimistic lower bound, lower = more attractive.
  PoolRanking rank() override { return lower_confidence_bound(params_.kappa); }

  // Final ranking uses the ensemble mean (no exploration bonus).
  std::vector<double> final_scores() override {
    return lower_confidence_bound(0.0).scores;
  }

  /// Refits every member on its own bootstrap resample of the successful
  /// measurements; returns the fit's seconds.
  double refit() {
    telemetry::Telemetry* tel = problem_.telemetry;
    if (tel != nullptr) tel->count("surrogate.fits");
    telemetry::ScopedSpan span(tel, "surrogate.fit");
    const auto& indices = collector_.ok_indices();
    const auto& values = collector_.ok_values();
    const std::size_t n = indices.size();
    std::vector<std::size_t> rows(n);
    std::vector<double> targets(n);
    for (Surrogate& member : members_) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t pick = rng_->uniform_u64(n);  // bootstrap
        rows[i] = indices[pick];
        targets[i] = values[pick];
      }
      member.fit(pool_features_, rows, targets, *rng_);
    }
    return span.stop();
  }

  /// Refits the ensemble and scores the pool as mu - kappa * sigma of the
  /// members' predictions (time units).
  PoolRanking lower_confidence_bound(double kappa) {
    PoolRanking ranking;
    ranking.fit_s = refit();
    telemetry::ScopedSpan span(problem_.telemetry, "surrogate.predict");
    std::vector<std::vector<double>> member;
    member.reserve(members_.size());
    for (const Surrogate& model : members_) {
      member.push_back(model.predict_many(pool_features_));
    }
    ranking.scores.resize(pool_features_.size());
    std::vector<double> preds(members_.size());
    for (std::size_t i = 0; i < ranking.scores.size(); ++i) {
      for (std::size_t k = 0; k < members_.size(); ++k) {
        preds[k] = member[k][i];
      }
      ranking.scores[i] = ceal::mean(preds) - kappa * ceal::stddev(preds);
    }
    ranking.predict_s = span.stop();
    return ranking;
  }

  BayesOptParams params_;
  std::size_t m_r_;  // charged component rounds of BO-CEAL
  const ml::FeatureMatrix pool_features_;
  std::vector<Surrogate> members_;
};

}  // namespace

std::unique_ptr<TunerStepper> BayesOpt::make_stepper(
    const TuningProblem& problem, std::size_t budget_runs,
    ceal::Rng& rng) const {
  const std::size_t m_r =
      params_.bootstrap_with_low_fidelity
          ? charged_component_rounds(problem, budget_runs,
                                     params_.mR_fraction, "BO-CEAL")
          : 0;
  return std::make_unique<BayesOptStepper>(*this, params_, m_r, problem,
                                           budget_runs, rng);
}

}  // namespace ceal::tuner
