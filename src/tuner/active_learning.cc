#include "tuner/active_learning.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/error.h"
#include "core/telemetry.h"
#include "tuner/pool_scorer.h"
#include "tuner/surrogate.h"
#include "tuner/tuning_util.h"

namespace ceal::tuner {

ActiveLearningLoop::ActiveLearningLoop(const AutoTuner& algorithm,
                                       const TuningProblem& problem,
                                       std::size_t budget_runs,
                                       ceal::Rng& rng, std::size_t iterations,
                                       double init_fraction,
                                       const char* iteration_event)
    : TunerStepper(problem, budget_runs, rng),
      collector_(problem_, budget_runs, rng_),
      iterations_(iterations),
      init_fraction_(init_fraction),
      iteration_event_(iteration_event) {
  emit_tune_start(problem_, algorithm, budget_);
}

TunerProgress ActiveLearningLoop::progress() const {
  return collector_progress(collector_);
}

std::vector<std::size_t> ActiveLearningLoop::initial_batch(
    std::size_t count) {
  return random_unmeasured(collector_, count, *rng_);
}

void ActiveLearningLoop::do_step() {
  if (phase_ == Phase::kWarmup) {
    const auto warmup = std::max<std::size_t>(
        2, static_cast<std::size_t>(std::llround(
               init_fraction_ * static_cast<double>(budget_))));
    measure_batch(collector_, initial_batch(warmup));
    batch_size_ = std::max<std::size_t>(
        1, (budget_ - std::min(warmup, budget_)) / iterations_);
    phase_ = Phase::kLoop;
    return;
  }
  if (phase_ == Phase::kLoop) {
    while (collector_.remaining() > 0) {
      const std::size_t req_start = collector_.measured_indices().size();
      const std::size_t ok_start = collector_.ok_values().size();
      // Every warm-up attempt failed: spend budget on fresh random
      // configurations until the model has something to train on.
      const bool untrained = collector_.ok_indices().empty();
      const PoolRanking ranking = untrained ? PoolRanking{} : rank();
      const auto batch =
          untrained ? random_unmeasured(collector_, batch_size_, *rng_)
                    : top_unmeasured(ranking.scores, collector_, batch_size_);
      if (batch.empty()) break;
      measure_batch(collector_, batch, ranking.scores,
                    untrained ? 0 : batch_size_);
      emit_iteration_event(problem_, iteration_event_, iteration_++,
                           collector_, req_start, ok_start, ranking.fit_s,
                           ranking.predict_s);
      return;  // one iteration per step
    }
    phase_ = Phase::kFinal;
  }
  finish(finalize_result(collector_, final_scores()));
}

ActiveLearning::ActiveLearning(ActiveLearningParams params)
    : params_(params) {
  CEAL_EXPECT(params_.iterations >= 1);
  CEAL_EXPECT(params_.init_fraction > 0.0 && params_.init_fraction <= 1.0);
}

namespace {

// AL's ranker: the surrogate refit on every measurement, scoring the
// pool.
class ActiveLearningStepper final : public ActiveLearningLoop {
 public:
  ActiveLearningStepper(const ActiveLearning& algorithm,
                        const ActiveLearningParams& params,
                        const TuningProblem& problem, std::size_t budget_runs,
                        ceal::Rng& rng)
      : ActiveLearningLoop(algorithm, problem, budget_runs, rng,
                           params.iterations, params.init_fraction,
                           "al.iteration"),
        // The pool is rescored every iteration: featurized once here in
        // the default cached mode, streamed in blocks when
        // pool_chunk_rows opts in.
        pool_scorer_(problem_.workload->workflow, problem_.pool->configs,
                     problem_.pool_chunk_rows, problem_.telemetry),
        surrogate_(problem_.surrogate_gbt) {}

 private:
  PoolRanking rank() override {
    PoolRanking ranking;
    ranking.fit_s = fit_on_measured(surrogate_, collector_, *rng_);
    telemetry::ScopedSpan predict_span(problem_.telemetry,
                                       "surrogate.predict");
    ranking.scores = pool_scorer_.surrogate_scores(surrogate_);
    ranking.predict_s = predict_span.stop();
    return ranking;
  }

  std::vector<double> final_scores() override { return rank().scores; }

  const PoolScorer pool_scorer_;
  Surrogate surrogate_;
};

}  // namespace

std::unique_ptr<TunerStepper> ActiveLearning::make_stepper(
    const TuningProblem& problem, std::size_t budget_runs,
    ceal::Rng& rng) const {
  return std::make_unique<ActiveLearningStepper>(*this, params_, problem,
                                                 budget_runs, rng);
}

}  // namespace ceal::tuner
