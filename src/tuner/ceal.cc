#include "tuner/ceal.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <span>
#include <vector>

#include "core/error.h"
#include "core/stats.h"
#include "core/telemetry.h"
#include "ml/metrics.h"
#include "tuner/active_learning.h"
#include "tuner/checkpoint.h"
#include "tuner/low_fidelity.h"
#include "tuner/surrogate.h"
#include "tuner/tuning_util.h"

namespace ceal::tuner {

Ceal::Ceal(CealParams params) : params_(params) {
  CEAL_EXPECT(params_.iterations >= 1);
  CEAL_EXPECT(params_.m0_fraction >= 0.0 && params_.m0_fraction < 1.0);
  CEAL_EXPECT(params_.mR_fraction >= 0.0 && params_.mR_fraction < 1.0);
}

namespace {

// Algorithm 1 on the shared active-learning loop. Phase 1 (component
// models, M_L scores, first queue; lines 1-12) is the loop's start. Each
// later step is one iteration of lines 13-27: the loop measures the
// queued batch, after_batch detects the switch, tops up and refits M_H,
// and rank() scores the pool with M for the next queue. The final pass
// ranks by the calibrated ensemble (line 28).
class CealStepper final : public ActiveLearningLoop {
 public:
  CealStepper(const Ceal& algorithm, const CealParams& params,
              std::size_t m_r, const TuningProblem& problem,
              std::size_t budget_runs, ceal::Rng& rng)
      : ActiveLearningLoop(algorithm, problem, budget_runs, rng,
                           "ceal.iteration"),
        params_(params),
        m_r_(m_r),
        high_fidelity_(problem_.surrogate_gbt) {  // M_H (line 12)
    max_batches_ = params_.iterations;  // line 13: I iterations
  }

  TunerProgress progress() const override {
    TunerProgress progress = ActiveLearningLoop::progress();
    progress.model = using_high_fidelity_ ? "high" : "low";
    progress.has_recalls = has_recalls_;
    progress.recall_low = last_recall_low_;
    progress.recall_high = last_recall_high_;
    return progress;
  }

 private:
  QueuedBatch start() override {
    telemetry::Telemetry* tel = problem_.telemetry;
    const std::size_t m = budget_;
    // ---- Phase 1: low-fidelity model via component combination (lines
    // 1-6). Historical samples are free; otherwise m_R is charged.
    double components_fit_s = 0.0;
    const LowFidelityModel low_fidelity(
        problem_.workload->workflow, problem_.objective,
        train_component_models(collector_, m_r_, *rng_, &components_fit_s));
    telemetry::ScopedSpan low_score_span(tel, "low_fidelity.score");
    low_scores_ = pool_.low_fidelity_scores(low_fidelity);
    const double low_score_s = low_score_span.stop();

    // ---- Phase 2 set-up: high-fidelity model via dynamic ensemble
    // active learning (lines 7-28).
    m0_ = std::max<std::size_t>(2, rounded_fraction(params_.m0_fraction, m));
    if (m0_ % 2 == 1) ++m0_;        // keep m0/2 integral
    m0_ = std::min(m0_, m - m_r_);  // never exceed the run budget
    m0_used_ = m0_ / 2;             // m0' in Alg. 1
    // Alg. 1 line 8 sizes batches as (m - m0 - m_R)/I; we additionally
    // keep batches at >= 3 so the top-1/2/3 recalls of the switch
    // detector carry signal (iterations simply end sooner when the
    // budget runs dry).
    batch_size_ = std::max<std::size_t>(
        3, (m - std::min(m, m0_ + m_r_)) / params_.iterations);

    if (tel != nullptr) {
      telemetry::TraceEvent event("ceal.phase1");
      event.field("budget", m)
          .field("m_r", m_r_)
          .field("m0", m0_)
          .field("m_b", batch_size_)
          .field("iterations", params_.iterations)
          .field("history", problem_.components_are_history)
          .timing("components_fit_s", components_fit_s)
          .timing("low_score_s", low_score_s);
      tel->emit(std::move(event));
    }

    // Line 7: m0/2 random samples; lines 9-10: top m_B by the
    // low-fidelity model (M = M_L, line 11).
    QueuedBatch first{random_unmeasured(collector_, m0_used_, *rng_),
                      {low_scores_}};
    const auto top = top_unmeasured(low_scores_, collector_, batch_size_);
    first.indices.insert(first.indices.end(), top.begin(), top.end());
    return first;
  }

  // M_L scores the pool from phase 1 on.
  bool has_model() const override { return true; }

  // Lines 16-25, after line 14 measured the batch. Only successful
  // measurements count towards it; the loop topped failed attempts up
  // from the queueing model's ranking. Returns the lines 20-22 random
  // top-up, which the next batch measures first.
  std::vector<std::size_t> after_batch(std::size_t ok_start) override {
    telemetry::Telemetry* tel = problem_.telemetry;
    const auto& all_indices = collector_.ok_indices();
    const auto& all_values = collector_.ok_values();
    const std::size_t batch_len = all_values.size() - ok_start;
    detection_ran_ = switched_now_ = queued_by_high_ = false;
    topup_injected_ = 0;
    detect_s_ = fit_s_ = 0.0;
    // Every attempt this iteration failed: skip detection and the M_H
    // refit, and let rank() re-queue from the low-fidelity ranking so the
    // next iteration retries.
    batch_failed_ = batch_len == 0;
    if (batch_failed_) return {};

    // Lines 16-24: model-switch detection, while still evaluating with
    // the low-fidelity model and once M_H has been trained at least once.
    // Batches smaller than 3 carry no ranking signal (the top-1/2/3
    // recalls of any two models tie trivially), so detection waits for a
    // meaningful batch.
    std::vector<std::size_t> randoms;
    const std::size_t i = batches_;  // Alg. 1 line 13
    if (params_.enable_switch_detection && !using_high_fidelity_ &&
        high_fidelity_.is_fitted() && batch_len >= 3) {
      telemetry::ScopedSpan detect_span(tel, "ceal.switch_detection");
      detection_ran_ = true;
      std::vector<double> batch_high(batch_len), batch_low(batch_len),
          batch_meas(batch_len);
      for (std::size_t b = 0; b < batch_len; ++b) {
        const std::size_t idx = all_indices[ok_start + b];
        batch_high[b] =
            high_fidelity_.predict_features(pool_.features().row(idx));
        batch_low[b] = low_scores_[idx];
        batch_meas[b] = all_values[ok_start + b];
      }
      const double s_high = ml::recall_sum_top123(batch_high, batch_meas);
      const double s_low = ml::recall_sum_top123(batch_low, batch_meas);
      has_recalls_ = true;  // surfaced live via progress()
      last_recall_low_ = s_low;
      last_recall_high_ = s_high;

      // Line 20: bias check — M_H's three favourite measured configs
      // must fall within the better half of all measurements, otherwise
      // top up with random samples.
      std::vector<double> meas_high(all_indices.size());
      for (std::size_t s = 0; s < all_indices.size(); ++s) {
        meas_high[s] = high_fidelity_.predict_features(
            pool_.features().row(all_indices[s]));
      }
      const std::size_t top_n = std::min<std::size_t>(3, meas_high.size());
      const std::size_t half =
          std::max<std::size_t>(top_n, all_indices.size() / 2);
      auto fav = smallest_k(meas_high, top_n);
      auto good = smallest_k(all_values, half);
      std::sort(fav.begin(), fav.end());
      std::sort(good.begin(), good.end());
      std::vector<std::size_t> common;
      std::set_intersection(fav.begin(), fav.end(), good.begin(), good.end(),
                            std::back_inserter(common));
      if (params_.enable_random_topup && common.size() < top_n &&
          m0_used_ < m0_) {
        const std::size_t extra = (m0_ - m0_used_) / 2;
        if (extra > 0) {
          randoms = random_unmeasured(collector_, extra, *rng_);
          m0_used_ += extra;  // line 22
          topup_injected_ = randoms.size();
          // The top-up draws come off the tuner rng, so journal the
          // stream position alongside the decision: a resumed session
          // must land on exactly the same random injections.
          checkpoint_decision(
              problem_, "ceal.topup",
              {{"iteration", json::Value::number(std::uint64_t{i})},
               {"injected", json::Value::number(
                                static_cast<std::uint64_t>(randoms.size()))},
               {"m0_used", json::Value::number(
                               static_cast<std::uint64_t>(m0_used_))},
               {"rng", rng_state_to_json(rng_->state())}});
          if (tel != nullptr) {
            tel->count("ceal.topups");
            telemetry::TraceEvent event("ceal.topup");
            event.field("iteration", i)
                .field("injected", randoms.size())
                .field("m0_used", m0_used_);
            tel->emit(std::move(event));
          }
        }
      }

      if (s_high >= s_low) {
        using_high_fidelity_ = true;  // line 24: M <- M_H
        switched_now_ = true;
        if (i < params_.iterations) {
          batch_size_ += (m0_ - m0_used_) / (params_.iterations - i);
        }
        checkpoint_decision(
            problem_, "ceal.switch",
            {{"iteration", json::Value::number(std::uint64_t{i})},
             {"m_b",
              json::Value::number(static_cast<std::uint64_t>(batch_size_))}});
        if (tel != nullptr) {
          tel->count("ceal.switched");
          telemetry::TraceEvent event("ceal.switch");
          event.field("iteration", i)
              .field("recall_low", s_low)
              .field("recall_high", s_high)
              .field("m_b", batch_size_);
          tel->emit(std::move(event));
        }
      }
      detect_s_ = detect_span.stop();
    }

    // Line 25: train/refine M_H on all measured data.
    fit_s_ =
        fit_on_measured(high_fidelity_, collector_, *rng_, pool_.features());
    return randoms;
  }

  // Lines 26-27: evaluate the pool with M. After an all-failed batch the
  // low-fidelity ranking queues the retry, even once M = M_H.
  PoolRanking rank() override {
    if (!using_high_fidelity_ || batch_failed_) return {low_scores_};
    PoolRanking ranking;
    telemetry::ScopedSpan predict_span(problem_.telemetry,
                                       "surrogate.predict");
    ranking.scores = predict_batch(problem_.telemetry, high_fidelity_,
                                   pool_.features());
    ranking.predict_s = predict_span.stop();
    queued_by_high_ = true;
    return ranking;
  }

  void emit_iteration(const QueuedBatch&, std::size_t req_start,
                      std::size_t ok_start) override {
    telemetry::Telemetry* tel = problem_.telemetry;
    if (tel == nullptr) return;
    tel->count("ceal.iterations");
    const auto& requested = collector_.measured_indices();
    const auto& values = collector_.ok_values();
    telemetry::TraceEvent event("ceal.iteration");
    event.field("iteration", batches_)
        .field("batch", std::span<const std::size_t>(
                            requested.data() + req_start,
                            requested.size() - req_start))
        .field("batch_ok", values.size() - ok_start)
        .field("batch_values",
               std::span<const double>(values.data() + ok_start,
                                       values.size() - ok_start))
        .field("model", using_high_fidelity_ ? "high" : "low")
        .field("switched", switched_now_)
        .field("topup", topup_injected_)
        .field("m_b", batch_size_)
        .field("budget_used", collector_.runs_used())
        .field("budget_remaining", collector_.remaining());
    if (detection_ran_) {
      event.field("recall_low", last_recall_low_)
          .field("recall_high", last_recall_high_);
    }
    event.timing("fit_s", fit_s_)
        .timing("detect_s", detect_s_)
        .timing("predict_s", queue_.ranking.predict_s);
    tel->emit(std::move(event));
  }

  // Line 28 returns M_H; the searcher, per Fig. 3, consumes the
  // *selected* model — M_H once switch detection has promoted it, the
  // low-fidelity ensemble otherwise (measured configurations always
  // score as their observations, see finalize_result).
  std::vector<double> final_scores() override {
    CEAL_ENSURE_MSG(high_fidelity_.is_fitted(),
                    "CEAL collected no workflow samples");

    // The low-fidelity output is only a ranking score (§4); calibrate it
    // to the measurement scale with the median measured/score ratio so
    // it can stand next to real observations and M_H predictions.
    std::vector<double> calibrated_low = low_scores_;
    {
      const auto& indices = collector_.ok_indices();
      const auto& values = collector_.ok_values();
      std::vector<double> ratios;
      ratios.reserve(indices.size());
      for (std::size_t s = 0; s < indices.size(); ++s) {
        if (calibrated_low[indices[s]] > 0.0) {
          ratios.push_back(values[s] / calibrated_low[indices[s]]);
        }
      }
      if (!ratios.empty()) {
        const double factor = ceal::median(ratios);
        for (double& v : calibrated_low) v *= factor;
      }
    }

    // Final ensemble ranking: a configuration only ranks highly when
    // *both* models believe in it (element-wise max of lower-is-better
    // scores). Each model alone suffers a winner's curse over a
    // 2000-entry pool — its single most optimistic extrapolation error
    // wins the argmin; the conjunction suppresses errors that are not
    // shared by both models.
    //
    // When the I-th batch leaves budget, the step before this one ranked
    // the pool with this very M_H (nothing was refit since): reuse it.
    std::vector<double> scores;
    if (queued_by_high_) {
      scores = queue_.ranking.scores;
    } else {
      telemetry::ScopedSpan final_span(problem_.telemetry,
                                       "surrogate.predict");
      scores = predict_batch(problem_.telemetry, high_fidelity_,
                             pool_.features());
    }
    if (params_.ensemble_final) {
      for (std::size_t i = 0; i < scores.size(); ++i) {
        scores[i] = std::max(scores[i], calibrated_low[i]);
      }
    }
    return scores;
  }

  CealParams params_;
  std::size_t m_r_;
  Surrogate high_fidelity_;
  std::vector<double> low_scores_;
  bool using_high_fidelity_ = false;  // M = M_L (line 11)
  bool has_recalls_ = false;          // a detection pass has run
  double last_recall_low_ = 0.0;      // last s_low / s_high (line 17)
  double last_recall_high_ = 0.0;
  std::size_t m0_ = 0;
  std::size_t m0_used_ = 0;
  // The iteration in flight, reported by its ceal.iteration event.
  bool batch_failed_ = false;
  bool detection_ran_ = false;
  bool switched_now_ = false;
  bool queued_by_high_ = false;  // queue_.ranking is M_H's, as fitted now
  std::size_t topup_injected_ = 0;
  double detect_s_ = 0.0;
  double fit_s_ = 0.0;
};

}  // namespace

std::unique_ptr<TunerStepper> Ceal::make_stepper(const TuningProblem& problem,
                                                 std::size_t budget_runs,
                                                 ceal::Rng& rng) const {
  const CealParams params =
      auto_params_ ? (problem.components_are_history
                          ? CealParams::with_history()
                          : CealParams::no_history())
                   : params_;
  const std::size_t m_r = charged_component_rounds(
      problem, budget_runs, params.mR_fraction, name());
  return std::make_unique<CealStepper>(*this, params, m_r, problem,
                                       budget_runs, rng);
}

}  // namespace ceal::tuner
