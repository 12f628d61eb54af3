#include "tuner/alph.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "core/error.h"
#include "core/telemetry.h"
#include "tuner/active_learning.h"
#include "tuner/low_fidelity.h"
#include "tuner/surrogate.h"
#include "tuner/tuning_util.h"

namespace ceal::tuner {

Alph::Alph(AlphParams params) : params_(params) {
  CEAL_EXPECT(params_.iterations >= 1);
  CEAL_EXPECT(params_.init_fraction > 0.0 && params_.init_fraction <= 1.0);
  CEAL_EXPECT(params_.component_fraction >= 0.0 &&
              params_.component_fraction < 1.0);
}

namespace {

// ALpH's first step trains the component models and builds the
// augmented pool matrix; then the shared loop runs with a surrogate over
// that matrix as its ranker.
class AlphStepper final : public ActiveLearningLoop {
 public:
  AlphStepper(const Alph& algorithm, const AlphParams& params,
              const TuningProblem& problem, std::size_t budget_runs,
              ceal::Rng& rng)
      : ActiveLearningLoop(algorithm, problem, budget_runs, rng,
                           "alph.iteration", params.iterations,
                           params.init_fraction),
        params_(params),
        model_(problem_.surrogate_gbt) {}

 private:
  void do_step() override {
    if (pool_features_) {
      ActiveLearningLoop::do_step();
      return;
    }
    // Component models: free history when available, otherwise charged
    // runs.
    const auto& workflow = problem_.workload->workflow;
    const auto rounds = std::max<std::size_t>(
        1, rounded_fraction(params_.component_fraction, budget_));
    const auto components = train_component_models(collector_, rounds, *rng_);

    // Pre-compute the augmented feature rows for the whole pool once:
    // the joint features, then one column per component model's
    // prediction, each a batch over its columns of the joint matrix.
    const ml::FeatureMatrix& joint = pool_.features();
    const std::size_t dim = joint.n_features();
    pool_features_.emplace(dim + workflow.component_count(), joint.size());
    for (std::size_t i = 0; i < joint.size(); ++i) {
      std::ranges::copy(joint.row(i), pool_features_->mutable_row(i).begin());
    }
    for (std::size_t j = 0; j < workflow.component_count(); ++j) {
      const std::vector<double> predicted = components->predict_many(j, joint);
      for (std::size_t i = 0; i < predicted.size(); ++i) {
        pool_features_->mutable_row(i)[dim + j] = predicted[i];
      }
    }
  }

  PoolRanking rank() override {
    PoolRanking ranking;
    ranking.fit_s = fit_on_measured(model_, collector_, *rng_, *pool_features_);
    telemetry::ScopedSpan span(problem_.telemetry, "surrogate.predict");
    ranking.scores = model_.predict_many(*pool_features_);
    ranking.predict_s = span.stop();
    return ranking;
  }

  AlphParams params_;
  Surrogate model_;  // M'_0 over the augmented rows
  std::optional<ml::FeatureMatrix> pool_features_;
};

}  // namespace

std::unique_ptr<TunerStepper> Alph::make_stepper(const TuningProblem& problem,
                                                 std::size_t budget_runs,
                                                 ceal::Rng& rng) const {
  // A charged component round (at least 1) must leave a workflow run.
  CEAL_EXPECT_MSG(problem.components_are_history || budget_runs >= 2,
                  "ALpH without history needs a budget of at least 2 runs");
  return std::make_unique<AlphStepper>(*this, params_, problem, budget_runs,
                                       rng);
}

}  // namespace ceal::tuner
