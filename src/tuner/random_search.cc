#include "tuner/random_search.h"

#include <memory>
#include <optional>

#include "core/telemetry.h"
#include "tuner/collector.h"
#include "tuner/pool_scorer.h"
#include "tuner/stepper.h"
#include "tuner/surrogate.h"
#include "tuner/tuning_util.h"

namespace ceal::tuner {

namespace {

// RS as a state machine: one budget-sized random sweep, then (only under
// fault injection, where retries can leave budget) one drain batch per
// step, then the single surrogate fit. Slicing is the only change — the
// operation sequence is the monolithic loop's, verbatim.
class RandomSearchStepper final : public TunerStepper {
 public:
  RandomSearchStepper(const RandomSearch& algorithm,
                      const TuningProblem& problem, std::size_t budget_runs,
                      ceal::Rng& rng)
      : TunerStepper(problem, budget_runs, rng),
        collector_(problem_, budget_runs, rng_) {
    emit_tune_start(problem_, algorithm, budget_);
  }

  TunerProgress progress() const override {
    return collector_progress(collector_);
  }

 private:
  enum class Phase { kSweep, kDrain, kFinal };

  void do_step() override {
    if (phase_ == Phase::kSweep) {
      const std::size_t req_start = collector_.measured_indices().size();
      const std::size_t ok_start = collector_.ok_values().size();
      const auto batch = random_unmeasured(collector_, budget_, *rng_);
      measure_batch(collector_, batch);
      emit_iteration_event(problem_, "rs.sweep", sweep_++, collector_,
                           req_start, ok_start, 0.0, 0.0);
      phase_ = Phase::kDrain;
      return;
    }
    if (phase_ == Phase::kDrain) {
      // Under fault injection (retries or free retries) budget can remain
      // after the first sweep; keep drawing random configurations until
      // it is spent. The fault-free path spends exactly the budget above.
      if (collector_.remaining() > 0) {
        const std::size_t req_start = collector_.measured_indices().size();
        const std::size_t ok_start = collector_.ok_values().size();
        const auto more =
            random_unmeasured(collector_, collector_.remaining(), *rng_);
        if (!more.empty()) {
          measure_batch(collector_, more);
          emit_iteration_event(problem_, "rs.sweep", sweep_++, collector_,
                               req_start, ok_start, 0.0, 0.0);
          return;
        }
      }
      phase_ = Phase::kFinal;
    }

    Surrogate surrogate(problem_.surrogate_gbt);
    fit_on_measured(surrogate, collector_, *rng_);
    telemetry::ScopedSpan predict_span(problem_.telemetry,
                                       "surrogate.predict");
    const PoolScorer pool_scorer(problem_.workload->workflow,
                                 problem_.pool->configs,
                                 problem_.pool_chunk_rows, problem_.telemetry);
    auto scores = pool_scorer.surrogate_scores(surrogate);
    predict_span.stop();
    finish(finalize_result(collector_, std::move(scores)));
  }

  Collector collector_;
  Phase phase_ = Phase::kSweep;
  std::size_t sweep_ = 0;
};

}  // namespace

std::unique_ptr<TunerStepper> RandomSearch::make_stepper(
    const TuningProblem& problem, std::size_t budget_runs,
    ceal::Rng& rng) const {
  return std::make_unique<RandomSearchStepper>(*this, problem, budget_runs,
                                               rng);
}

}  // namespace ceal::tuner
