// AL baseline (§7.3): batch active learning. After a random warm-up the
// surrogate is refined iteratively; each iteration measures the batch of
// configurations the current model predicts to perform best
// (exploitation-driven sampling, as in Behzad et al. and Mametjanov et
// al.).
//
// The loop itself is shared: GEIST, ALpH and BO are the same batch
// active-learning loop (ActiveLearningLoop) with a different ranker.
#pragma once

#include <vector>

#include "tuner/autotuner.h"
#include "tuner/collector.h"
#include "tuner/stepper.h"

namespace ceal::tuner {

struct ActiveLearningParams {
  std::size_t iterations = 8;
  /// Fraction of the budget spent on the random warm-up batch.
  double init_fraction = 0.25;
};

class ActiveLearning final : public AutoTuner {
 public:
  explicit ActiveLearning(ActiveLearningParams params = {});

  std::string name() const override { return "AL"; }

  std::unique_ptr<TunerStepper> make_stepper(const TuningProblem& problem,
                                             std::size_t budget_runs,
                                             ceal::Rng& rng) const override;

 private:
  ActiveLearningParams params_;
};

/// One ranker pass over the pool: a score per pool index (lower =
/// better) and the wall-clock seconds of its model fit and pool
/// prediction, reported in the iteration event's `timing`.
struct PoolRanking {
  std::vector<double> scores;
  double fit_s = 0.0;
  double predict_s = 0.0;
};

/// The batch active-learning loop behind AL, GEIST, ALpH and BO, sliced
/// at its natural boundaries. The first step measures a warm-up batch of
/// max(2, round(init_fraction * m)) configurations. Every later step
/// runs one iteration: the ranker scores the pool, and the best-scored
/// unmeasured configurations are measured as a batch of
/// max(1, (m - warm-up) / iterations), topped up past failed attempts.
/// While no measurement has succeeded, an iteration measures a random
/// batch instead. The step that finds the budget or the pool exhausted
/// also runs the final pass and finishes the session.
///
/// A tuner derives from this class and supplies its ranker (rank), its
/// final pool scores (final_scores) and, optionally, its warm-up batch
/// (initial_batch, random by default).
class ActiveLearningLoop : public TunerStepper {
 public:
  TunerProgress progress() const override;

 protected:
  /// Emits the "tune.start" event; `iteration_event` names the event
  /// each iteration emits (e.g. "al.iteration").
  ActiveLearningLoop(const AutoTuner& algorithm, const TuningProblem& problem,
                     std::size_t budget_runs, ceal::Rng& rng,
                     std::size_t iterations, double init_fraction,
                     const char* iteration_event);

  /// One warm-up or iteration step, or the final pass.
  void do_step() override;

  /// The warm-up batch of (up to) `count` pool indices.
  virtual std::vector<std::size_t> initial_batch(std::size_t count);

  /// Fits the tuner's model on every successful measurement and scores
  /// the whole pool. Only called once a measurement has succeeded.
  virtual PoolRanking rank() = 0;

  /// The pool scores the finished session ranks by (finalize_result).
  virtual std::vector<double> final_scores() = 0;

  Collector collector_;

 private:
  enum class Phase { kWarmup, kLoop, kFinal };

  std::size_t iterations_;
  double init_fraction_;
  const char* iteration_event_;
  Phase phase_ = Phase::kWarmup;
  std::size_t batch_size_ = 1;
  std::size_t iteration_ = 0;
};

}  // namespace ceal::tuner
