#include "tuner/active_learning.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "core/error.h"
#include "core/telemetry.h"
#include "tuner/surrogate.h"
#include "tuner/tuning_util.h"

namespace ceal::tuner {

ActiveLearningLoop::ActiveLearningLoop(
    const AutoTuner& algorithm, const TuningProblem& problem,
    std::size_t budget_runs, ceal::Rng& rng, const char* iteration_event,
    std::size_t iterations, double init_fraction)
    : TunerStepper(problem, budget_runs, rng),
      collector_(problem_, budget_runs, rng_),
      pool_(problem_.workload->workflow.joint_space(),
            problem_.pool->configs),
      iteration_event_(iteration_event),
      iterations_(iterations),
      init_fraction_(init_fraction) {
  emit_tune_start(problem_, algorithm, budget_);
}

TunerProgress ActiveLearningLoop::progress() const {
  return collector_progress(collector_);
}

QueuedBatch ActiveLearningLoop::start() {
  const auto warmup =
      std::max<std::size_t>(2, rounded_fraction(init_fraction_, budget_));
  batch_size_ = std::max<std::size_t>(
      1, (budget_ - std::min(warmup, budget_)) / iterations_);
  return {initial_batch(warmup), {}};
}

std::vector<std::size_t> ActiveLearningLoop::initial_batch(
    std::size_t count) {
  return random_unmeasured(collector_, count, *rng_);
}

void ActiveLearningLoop::emit_iteration(const QueuedBatch& measured,
                                        std::size_t req_start,
                                        std::size_t ok_start) {
  if (batches_ == 1) return;  // the warm-up
  emit_iteration_event(problem_, iteration_event_, batches_ - 2, collector_,
                       req_start, ok_start, measured.ranking.fit_s,
                       measured.ranking.predict_s);
}

void ActiveLearningLoop::do_step() {
  if (!started_) {
    queue_ = start();
    started_ = true;
    return;
  }
  if (batches_ == max_batches_ || queue_.indices.empty()) {
    finish(finalize_result(collector_, final_scores()));
    return;
  }
  const QueuedBatch measured = std::exchange(queue_, {});
  const std::size_t req_start = collector_.measured_indices().size();
  const std::size_t ok_start = collector_.ok_values().size();
  measure_batch(collector_, measured.indices, measured.ranking.scores);
  ++batches_;
  queue_.indices = after_batch(ok_start);
  if (collector_.remaining() > 0) {
    const bool ranked = has_model();
    if (ranked) queue_.ranking = rank();
    const auto picks =
        ranked ? top_unmeasured(queue_.ranking.scores, collector_, batch_size_)
               : random_unmeasured(collector_, batch_size_, *rng_);
    queue_.indices.insert(queue_.indices.end(), picks.begin(), picks.end());
  }
  emit_iteration(measured, req_start, ok_start);
  if (collector_.remaining() == 0) {
    finish(finalize_result(collector_, final_scores()));
  }
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
                           "al.iteration", params.iterations,
                           params.init_fraction),
        surrogate_(problem_.surrogate_gbt) {}

 private:
  PoolRanking rank() override {
    PoolRanking ranking;
    ranking.fit_s =
        fit_on_measured(surrogate_, collector_, *rng_, pool_.features());
    telemetry::ScopedSpan predict_span(problem_.telemetry,
                                       "surrogate.predict");
    ranking.scores =
        predict_batch(problem_.telemetry, surrogate_, pool_.features());
    ranking.predict_s = predict_span.stop();
    return ranking;
  }

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
