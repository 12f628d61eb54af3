#include "tuner/active_learning.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/error.h"
#include "core/telemetry.h"
#include "tuner/collector.h"
#include "tuner/pool_scorer.h"
#include "tuner/stepper.h"
#include "tuner/surrogate.h"
#include "tuner/tuning_util.h"

namespace ceal::tuner {

ActiveLearning::ActiveLearning(ActiveLearningParams params)
    : params_(params) {
  CEAL_EXPECT(params_.iterations >= 1);
  CEAL_EXPECT(params_.init_fraction > 0.0 && params_.init_fraction <= 1.0);
}

namespace {

// AL sliced at its natural boundaries: the random warm-up batch, one
// fit/score/measure refinement per step, the final fit.
class ActiveLearningStepper final : public TunerStepper {
 public:
  ActiveLearningStepper(const ActiveLearning& algorithm,
                        const ActiveLearningParams& params,
                        const TuningProblem& problem, std::size_t budget_runs,
                        ceal::Rng& rng)
      : TunerStepper(problem, budget_runs, rng),
        params_(params),
        collector_(problem_, budget_runs, rng_),
        // The pool is rescored every iteration: featurized once here in
        // the default cached mode, streamed in blocks when
        // pool_chunk_rows opts in.
        pool_scorer_(problem_.workload->workflow.joint_space(),
                     problem_.pool->configs, problem_.pool_chunk_rows,
                     problem_.telemetry),
        surrogate_(problem_.surrogate_gbt) {
    emit_tune_start(problem_, algorithm, budget_);
  }

  TunerProgress progress() const override {
    return collector_progress(collector_);
  }

 private:
  enum class Phase { kWarmup, kLoop, kFinal };

  void do_step() override {
    telemetry::Telemetry* tel = problem_.telemetry;
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
          // Every warmup attempt failed; spend budget on fresh random
          // configurations until the surrogate has something to train on.
          const auto batch =
              random_unmeasured(collector_, batch_size_, *rng_);
          if (batch.empty()) break;
          measure_batch(collector_, batch);
          emit_iteration_event(problem_, "al.iteration", iteration_++,
                               collector_, req_start, ok_start, 0.0, 0.0);
          return;  // one iteration per step
        }
        const double fit_s = fit_on_measured(surrogate_, collector_, *rng_);
        telemetry::ScopedSpan predict_span(tel, "surrogate.predict");
        const auto scores = pool_scorer_.surrogate_scores(surrogate_);
        const double predict_s = predict_span.stop();
        const auto batch = top_unmeasured(scores, collector_, batch_size_);
        if (batch.empty()) break;
        measure_batch(collector_, batch, scores, batch_size_);
        emit_iteration_event(problem_, "al.iteration", iteration_++,
                             collector_, req_start, ok_start, fit_s,
                             predict_s);
        return;  // one iteration per step
      }
      phase_ = Phase::kFinal;
    }

    fit_on_measured(surrogate_, collector_, *rng_);
    telemetry::ScopedSpan final_span(tel, "surrogate.predict");
    auto scores = pool_scorer_.surrogate_scores(surrogate_);
    final_span.stop();
    finish(finalize_result(collector_, std::move(scores)));
  }

  ActiveLearningParams params_;
  Collector collector_;
  const PoolScorer pool_scorer_;
  Surrogate surrogate_;
  Phase phase_ = Phase::kWarmup;
  std::size_t batch_size_ = 1;
  std::size_t iteration_ = 0;
};

}  // namespace

std::unique_ptr<TunerStepper> ActiveLearning::make_stepper(
    const TuningProblem& problem, std::size_t budget_runs,
    ceal::Rng& rng) const {
  return std::make_unique<ActiveLearningStepper>(*this, params_, problem,
                                                 budget_runs, rng);
}

}  // namespace ceal::tuner
