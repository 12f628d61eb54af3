// Small helpers shared by the auto-tuning algorithms.
#pragma once

#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/json.h"
#include "core/rng.h"
#include "tuner/autotuner.h"
#include "tuner/collector.h"
#include "tuner/stepper.h"
#include "tuner/surrogate.h"

namespace ceal::tuner {

class ComponentModelSet;

/// round(fraction * total), the share of a budget a tuner parameter names.
std::size_t rounded_fraction(double fraction, std::size_t total);

/// CEAL's and BO-CEAL's charged component rounds m_R =
/// clamp(round(fraction * m), 1, m - 2), or 0 with free history. A
/// charged budget below 3 throws PreconditionError naming `tuner`.
std::size_t charged_component_rounds(const TuningProblem& problem,
                                     std::size_t budget_runs,
                                     double fraction,
                                     const std::string& tuner);

/// Bounded top-k selection over streamed (score, index) pairs: keeps the
/// k smallest scores seen so far in a max-heap of k entries, so ranking
/// a pool of N candidates costs O(N log k) time and O(k) memory instead
/// of materialising a full argsort permutation. Ties break towards the
/// lower index, which makes take() exactly the first k entries of
/// ceal::argsort (stable ascending) restricted to the pushed indices —
/// the tuners' selection is bitwise unchanged by the bounded path.
class TopKSelector {
 public:
  explicit TopKSelector(std::size_t k);

  /// Considers one candidate. Indices may arrive in any order but each
  /// at most once; feeding them ascending reproduces argsort exactly.
  void push(double score, std::size_t index);

  std::size_t size() const { return heap_.size(); }

  /// The kept indices, sorted ascending by (score, index). Leaves the
  /// selector empty and reusable.
  std::vector<std::size_t> take();

 private:
  std::size_t k_;
  /// Max-heap on (score, index): front() is the current worst keeper.
  std::vector<std::pair<double, std::size_t>> heap_;
};

/// Indices of the `k` smallest scores, ties towards the lower index —
/// equal to the first k entries of ceal::argsort(scores) without the
/// O(n log n) sort or the n-entry permutation.
std::vector<std::size_t> smallest_k(std::span<const double> scores,
                                    std::size_t k);

/// The `count` unmeasured pool indices with the smallest scores
/// (lower = better). `scores` must cover the whole pool. Returns fewer
/// when not enough unmeasured configurations remain. Indices whose
/// measurement failed count as measured and are never re-selected.
std::vector<std::size_t> top_unmeasured(std::span<const double> scores,
                                        const Collector& collector,
                                        std::size_t count);

/// `count` distinct random unmeasured pool indices (fewer if exhausted).
std::vector<std::size_t> random_unmeasured(const Collector& collector,
                                           std::size_t count,
                                           ceal::Rng& rng);

/// Measures every index in `batch` until the budget runs out. When the
/// problem injects faults, failed attempts can leave the batch short of
/// usable data; passing `topup_scores` (pool-wide, lower = better) lets
/// the helper keep measuring the best-scored unmeasured configurations
/// until as many measurements succeeded as `batch` holds, the budget is
/// spent, or the pool is exhausted. Returns the number of *successful*
/// measurements gained (equal to the number measured on the fault-free
/// path).
/// With a checkpoint attached the batch selection is journaled (and
/// validated on resume) before the first measurement runs.
std::size_t measure_batch(Collector& collector,
                          std::span<const std::size_t> batch,
                          std::span<const double> topup_scores = {});

/// Fits `surrogate` on every *successful* measurement the collector
/// holds. Failed and censored entries never reach the training set, and
/// a hard guard rejects non-finite targets before they can reach
/// GradientBoostedTrees::fit. The surrogate trains on the measured
/// indices' rows of `pool_rows` (one feature row per pool index, e.g.
/// PoolScorer::features()). Returns the fit's wall-clock seconds when
/// the problem carries telemetry (recorded as the "surrogate.fit" span),
/// 0 otherwise.
double fit_on_measured(Surrogate& surrogate, const Collector& collector,
                       ceal::Rng& rng, const ml::FeatureMatrix& pool_rows);

/// The per-component models of a tuner that bootstraps from component
/// runs (CEAL, ALpH, BO-CEAL). Trains on every historical sample when
/// the problem has them, otherwise charges `rounds` solo rounds
/// (Collector::acquire_component_samples). The models use the
/// problem's surrogate_gbt and train inside the "components.fit" span,
/// whose seconds land in `fit_s` when it is non-null. History models
/// come from ComponentModelSet::fit_shared: a session whose history and
/// surrogate_gbt equal an earlier session's in this process reuses that
/// session's models, bit-identical and with `rng` untouched, so its span
/// is short. Charged samples are drawn per session and always fitted.
std::shared_ptr<const ComponentModelSet> train_component_models(
    Collector& collector, std::size_t rounds, ceal::Rng& rng,
    double* fit_s = nullptr);

/// Builds the TuneResult from the final pool scores and the collector's
/// ledger (searcher = argmin of scores, §2.2). Only successful
/// measurements override model scores; failed entries are reported in
/// TuneResult::failed_runs. Emits the "tune.finish" trace event when the
/// problem carries telemetry.
TuneResult finalize_result(const Collector& collector,
                           std::vector<double> model_scores);

/// Emits the "tune.start" trace event (algorithm, workflow, objective,
/// budget, fault/history flags) when the problem carries telemetry;
/// otherwise a single pointer branch. Every tuner calls this first.
void emit_tune_start(const TuningProblem& problem, const AutoTuner& algorithm,
                     std::size_t budget_runs);

/// Emits one per-iteration trace event for the simple tuner loops (AL,
/// RS, GEIST, ALpH, BO): the pool indices requested since `req_start`,
/// the successful values gained since `ok_start`, budget state, and the
/// iteration's model-fit/predict wall-clock under `timing`. No-op
/// without telemetry.
void emit_iteration_event(const TuningProblem& problem, const char* name,
                          std::size_t iteration, const Collector& collector,
                          std::size_t req_start, std::size_t ok_start,
                          double fit_s, double predict_s);

/// TunerProgress filled from the collector's ledger (budget and best
/// measured value) — the shared part of every stepper's progress()
/// override; model-switching tuners add their phase fields on top.
TunerProgress collector_progress(const Collector& collector);

/// Journals (live) or validates (resume) one tuner decision record with
/// the given kind and fields; a single pointer branch without a
/// checkpoint. `fields` are (key, value) pairs appended after "kind";
/// every value must be a deterministic function of the session seed.
void checkpoint_decision(
    const TuningProblem& problem, const char* kind,
    std::initializer_list<std::pair<const char*, json::Value>> fields);

}  // namespace ceal::tuner
