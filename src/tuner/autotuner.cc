#include "tuner/autotuner.h"

#include "core/error.h"
#include "core/telemetry.h"
#include "tuner/checkpoint.h"
#include "tuner/stepper.h"

namespace ceal::tuner {

bool TunerStepper::step() {
  if (done_) return false;
  ++steps_taken_;
  // Every algorithm slice runs inside one causal span, so measure /
  // surrogate / pool spans emitted below always have a tuner.step
  // ancestor in the trace tree.
  telemetry::ScopedSpan span(problem_.telemetry, "tuner.step");
  do_step();
  return !done_;
}

const TuneResult& TunerStepper::result() const {
  CEAL_EXPECT_MSG(done_, "stepper result read before the session finished");
  return result_;
}

TuneResult TunerStepper::take_result() {
  CEAL_EXPECT_MSG(done_, "stepper result taken before the session finished");
  return std::move(result_);
}

void TunerStepper::finish(TuneResult result) {
  result_ = std::move(result);
  done_ = true;
  if (finishing_checkpoint_ != nullptr) {
    finishing_checkpoint_->finish_session(result_);
  }
}

TuneResult AutoTuner::tune(const TuningProblem& problem,
                           std::size_t budget_runs, ceal::Rng& rng) const {
  auto stepper = make_stepper(problem, budget_runs, rng);
  while (stepper->step()) {
  }
  return stepper->take_result();
}

TuneResult AutoTuner::tune(const TuningProblem& problem,
                           std::size_t budget_runs, ceal::Rng& rng,
                           CheckpointSession* checkpoint) const {
  auto stepper = make_stepper(problem, budget_runs, rng, checkpoint);
  while (stepper->step()) {
  }
  return stepper->take_result();
}

std::unique_ptr<TunerStepper> AutoTuner::make_stepper(
    const TuningProblem& problem, std::size_t budget_runs, ceal::Rng& rng,
    CheckpointSession* checkpoint) const {
  if (checkpoint == nullptr) return make_stepper(problem, budget_runs, rng);
  // The header captures the rng state *before* any draw (the Collector
  // splits the fault stream off it first thing), so resume can verify
  // the caller reseeded identically.
  checkpoint->set_telemetry(problem.telemetry);
  checkpoint->begin_session(
      make_checkpoint_header(problem, *this, budget_runs, rng));
  TuningProblem journaled = problem;
  journaled.checkpoint = checkpoint;
  auto stepper = make_stepper(journaled, budget_runs, rng);
  stepper->finishing_checkpoint_ = checkpoint;
  return stepper;
}

}  // namespace ceal::tuner
