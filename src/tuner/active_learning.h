// AL baseline (§7.3): batch active learning. After a random warm-up the
// surrogate is refined iteratively; each iteration measures the batch of
// configurations the current model predicts to perform best
// (exploitation-driven sampling, as in Behzad et al. and Mametjanov et
// al.).
//
// The loop itself is shared (ActiveLearningLoop). It is Algorithm 1's
// phase 2 (lines 13-27): measure the queued batch, update, rank the
// pool, queue the next batch. GEIST, ALpH and BO are the same loop with a
// different ranker. CEAL is the same loop whose ranker is M_L until the
// switch and M_H after it, plus its phase 1 as the start and its switch
// detection as the after-batch update. RS is not on the loop: it spends
// the budget on one random sweep and fits its surrogate once at the end,
// so it has neither a ranker nor batches to queue.
#pragma once

#include <limits>
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

/// A batch waiting to be measured and the ranking that queued it (failed
/// attempts are topped up from its scores; none for a random batch).
struct QueuedBatch {
  std::vector<std::size_t> indices;
  PoolRanking ranking;
};

/// The batch active-learning loop behind AL, GEIST, ALpH, BO and CEAL.
/// The first step runs start(), which queues the first batch. Every
/// later step measures the queued batch, runs after_batch(), queues the
/// next batch (after_batch's picks, then the m_B best unmeasured
/// configurations by rank(), or m_B random ones while has_model() is
/// false) and emits the iteration event. The step that spends the
/// budget, or finds the queue empty or max_batches_ batches measured,
/// runs the final pass.
class ActiveLearningLoop : public TunerStepper {
 public:
  TunerProgress progress() const override;

 protected:
  /// Emits the "tune.start" event. `iteration_event` names the default
  /// emit_iteration's event; `iterations` and `init_fraction` size the
  /// default start's warm-up and batches.
  ActiveLearningLoop(const AutoTuner& algorithm, const TuningProblem& problem,
                     std::size_t budget_runs, ceal::Rng& rng,
                     const char* iteration_event, std::size_t iterations = 1,
                     double init_fraction = 0.0);

  void do_step() override;

  /// The tuner's set-up and first batch; sets batch_size_ (m_B). By
  /// default AL's warm-up: max(2, round(init_fraction * m))
  /// configurations from initial_batch, then batches of
  /// max(1, (m - warm-up) / iterations).
  virtual QueuedBatch start();

  /// The warm-up's (up to) `count` pool indices; random by default.
  virtual std::vector<std::size_t> initial_batch(std::size_t count);

  /// The update after batch number batches_; its successes start at
  /// ok_start in ok_values(). Returns indices the next batch measures
  /// first.
  virtual std::vector<std::size_t> after_batch(std::size_t /*ok_start*/) {
    return {};
  }

  /// Whether rank() can score the pool: by default once a measurement
  /// succeeded.
  virtual bool has_model() const { return !collector_.ok_indices().empty(); }

  /// Scores the whole pool; called only while has_model().
  virtual PoolRanking rank() = 0;

  /// The pool scores the finished session ranks by (finalize_result); by
  /// default a last ranking.
  virtual std::vector<double> final_scores() { return rank().scores; }

  /// The event of the batch just measured (batch number batches_). The
  /// default emits `iteration_event` for each batch after the warm-up.
  virtual void emit_iteration(const QueuedBatch& measured,
                              std::size_t req_start, std::size_t ok_start);

  Collector collector_;
  std::size_t batch_size_ = 1;  // m_B
  std::size_t max_batches_ = std::numeric_limits<std::size_t>::max();
  std::size_t batches_ = 0;  // batches measured so far
  QueuedBatch queue_;        // what the next step measures

 private:
  const char* iteration_event_;
  std::size_t iterations_;
  double init_fraction_;
  bool started_ = false;
};

}  // namespace ceal::tuner
