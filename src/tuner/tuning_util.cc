#include "tuner/tuning_util.h"

#include <algorithm>
#include <cmath>

#include "core/error.h"
#include "core/stats.h"
#include "core/telemetry.h"
#include "tuner/checkpoint.h"
#include "tuner/low_fidelity.h"

namespace ceal::tuner {

std::size_t rounded_fraction(double fraction, std::size_t total) {
  return static_cast<std::size_t>(
      std::llround(fraction * static_cast<double>(total)));
}

std::size_t charged_component_rounds(const TuningProblem& problem,
                                     std::size_t budget_runs,
                                     double fraction,
                                     const std::string& tuner) {
  if (problem.components_are_history) return 0;
  CEAL_EXPECT_MSG(budget_runs >= 3,
                  tuner + " without history needs a budget of at least 3 runs");
  return std::clamp<std::size_t>(rounded_fraction(fraction, budget_runs), 1,
                                 budget_runs - 2);
}

TopKSelector::TopKSelector(std::size_t k) : k_(k) { heap_.reserve(k); }

void TopKSelector::push(double score, std::size_t index) {
  if (k_ == 0) return;
  if (heap_.size() < k_) {
    heap_.emplace_back(score, index);
    std::push_heap(heap_.begin(), heap_.end());
    return;
  }
  // (score, index) lexicographic: strictly better than the worst keeper
  // replaces it; an exact tie keeps the incumbent, matching the stable
  // argsort's preference for the index seen first.
  if (std::pair(score, index) < heap_.front()) {
    std::pop_heap(heap_.begin(), heap_.end());
    heap_.back() = {score, index};
    std::push_heap(heap_.begin(), heap_.end());
  }
}

std::vector<std::size_t> TopKSelector::take() {
  std::sort(heap_.begin(), heap_.end());
  std::vector<std::size_t> out;
  out.reserve(heap_.size());
  for (const auto& [score, index] : heap_) out.push_back(index);
  heap_.clear();
  return out;
}

std::vector<std::size_t> smallest_k(std::span<const double> scores,
                                    std::size_t k) {
  TopKSelector selector(k);
  for (std::size_t i = 0; i < scores.size(); ++i) {
    selector.push(scores[i], i);
  }
  return selector.take();
}

std::vector<std::size_t> top_unmeasured(std::span<const double> scores,
                                        const Collector& collector,
                                        std::size_t count) {
  CEAL_EXPECT(scores.size() == collector.problem().pool->size());
  // The k best unmeasured scores are the first k unmeasured entries of
  // the full ascending order, so filtering before the bounded selection
  // matches the old argsort-then-filter walk exactly.
  TopKSelector selector(count);
  for (std::size_t idx = 0; idx < scores.size(); ++idx) {
    if (!collector.is_measured(idx)) selector.push(scores[idx], idx);
  }
  return selector.take();
}

std::vector<std::size_t> random_unmeasured(const Collector& collector,
                                           std::size_t count,
                                           ceal::Rng& rng) {
  std::vector<std::size_t> candidates;
  const std::size_t pool_size = collector.problem().pool->size();
  candidates.reserve(pool_size);
  for (std::size_t i = 0; i < pool_size; ++i) {
    if (!collector.is_measured(i)) candidates.push_back(i);
  }
  const std::size_t take = std::min(count, candidates.size());
  const auto picks = rng.sample_without_replacement(candidates.size(), take);
  std::vector<std::size_t> out;
  out.reserve(take);
  for (const std::size_t p : picks) out.push_back(candidates[p]);
  return out;
}

std::size_t measure_batch(Collector& collector,
                          std::span<const std::size_t> batch,
                          std::span<const double> topup_scores) {
  const std::size_t want_ok = topup_scores.empty() ? 0 : batch.size();
  if (CheckpointSession* checkpoint = collector.problem().checkpoint) {
    // Journal the batch selection before the first run: a resumed
    // session re-derives the batch from the same model state and the
    // record proves it landed on the same configurations.
    json::Value indices = json::Value::array();
    for (const std::size_t idx : batch) {
      indices.push(json::Value::number(static_cast<std::uint64_t>(idx)));
    }
    json::Value payload = json::Value::object();
    payload.set("kind", json::Value::string("batch"));
    payload.set("batch", std::move(indices));
    payload.set("want_ok",
                json::Value::number(static_cast<std::uint64_t>(want_ok)));
    checkpoint->decision(std::move(payload));
  }
  // Hand the whole batch to a parallel measurement backend up front so
  // it can dispatch runs while the loop below consumes them in order.
  collector.prefetch(batch);
  std::size_t ok = 0;
  for (const std::size_t idx : batch) {
    if (collector.remaining() == 0) break;
    if (collector.try_measure(idx).status == sim::RunStatus::kOk) ++ok;
  }
  // Fault top-up: keep the per-iteration count of usable measurements at
  // the intended batch size while budget and candidates last. The
  // fault-free path never enters the loop (every measurement succeeded).
  while (ok < want_ok && collector.remaining() > 0) {
    const auto extra = top_unmeasured(topup_scores, collector, 1);
    if (extra.empty()) break;
    if (collector.try_measure(extra[0]).status == sim::RunStatus::kOk) ++ok;
  }
  return ok;
}

double fit_on_measured(Surrogate& surrogate, const Collector& collector,
                       ceal::Rng& rng, const ml::FeatureMatrix* pool_rows) {
  const auto& indices = collector.ok_indices();
  const auto& values = collector.ok_values();
  CEAL_EXPECT_MSG(!indices.empty(), "no usable training samples collected");
  for (const double v : values) {
    CEAL_EXPECT_MSG(std::isfinite(v),
                    "non-finite measurement in the training set");
  }
  const TuningProblem& problem = collector.problem();
  std::vector<config::Configuration> configs;
  if (pool_rows == nullptr) {
    configs.reserve(indices.size());
    for (const std::size_t idx : indices) {
      configs.push_back(problem.pool->configs[idx]);
    }
  }
  telemetry::Telemetry* tel = problem.telemetry;
  if (tel != nullptr) tel->count("surrogate.fits");
  // Push the registry down into the GBT so the fit below (and every
  // later predict through this surrogate) records per-round spans and
  // split-search counters.
  surrogate.set_telemetry(tel);
  telemetry::ScopedSpan span(tel, "surrogate.fit");
  if (pool_rows != nullptr) {
    surrogate.fit(*pool_rows, indices, values, rng);
  } else {
    surrogate.fit(problem.workload->workflow.joint_space(), configs, values,
                  rng);
  }
  return span.stop();
}

std::shared_ptr<const ComponentModelSet> train_component_models(
    Collector& collector, std::size_t rounds, ceal::Rng& rng,
    double* fit_s) {
  const TuningProblem& problem = collector.problem();
  const auto& indices = problem.components_are_history
                            ? collector.all_component_samples()
                            : collector.acquire_component_samples(rounds, rng);
  telemetry::ScopedSpan span(problem.telemetry, "components.fit");
  auto components = std::make_shared<const ComponentModelSet>(
      problem.workload->workflow, problem.objective,
      *problem.component_samples, indices, rng, problem.surrogate_gbt);
  const double s = span.stop();
  if (fit_s != nullptr) *fit_s = s;
  return components;
}

TuneResult finalize_result(const Collector& collector,
                           std::vector<double> model_scores) {
  CEAL_EXPECT(model_scores.size() == collector.problem().pool->size());
  // The auto-tuner's score for a configuration it already measured is the
  // measurement itself; the surrogate only fills in the unmeasured rest.
  // Failed entries have no observation — their model score stands.
  {
    const auto& indices = collector.ok_indices();
    const auto& values = collector.ok_values();
    for (std::size_t s = 0; s < indices.size(); ++s) {
      model_scores[indices[s]] = values[s];
    }
  }
  TuneResult result;
  result.best_predicted_index = static_cast<std::size_t>(
      std::min_element(model_scores.begin(), model_scores.end()) -
      model_scores.begin());
  result.model_scores = std::move(model_scores);
  result.measured_indices = collector.measured_indices();
  result.measured_statuses = collector.measured_statuses();
  result.failed_runs = collector.failed_count();
  const auto& values = collector.ok_values();
  CEAL_EXPECT_MSG(!values.empty(),
                  "tuning session produced no usable measurement");
  const std::size_t best_pos = static_cast<std::size_t>(
      std::min_element(values.begin(), values.end()) - values.begin());
  result.best_measured_index = collector.ok_indices()[best_pos];
  result.runs_used = collector.runs_used();
  result.cost_exec_s = collector.cost_exec_s();
  result.cost_comp_ch = collector.cost_comp_ch();
  if (telemetry::Telemetry* tel = collector.problem().telemetry) {
    telemetry::TraceEvent event("tune.finish");
    event.field("runs_used", result.runs_used)
        .field("measured", result.measured_indices.size())
        .field("failed_runs", result.failed_runs)
        .field("best_predicted_index", result.best_predicted_index)
        .field("best_measured_index", result.best_measured_index)
        .field("best_measured_value", values[best_pos])
        .field("cost_exec_s", result.cost_exec_s)
        .field("cost_comp_ch", result.cost_comp_ch);
    tel->emit(std::move(event));
  }
  return result;
}

void emit_tune_start(const TuningProblem& problem, const AutoTuner& algorithm,
                     std::size_t budget_runs) {
  telemetry::Telemetry* tel = problem.telemetry;
  if (tel == nullptr) return;
  tel->count("tune.sessions");
  telemetry::TraceEvent event("tune.start");
  event.field("algorithm", algorithm.name())
      .field("workflow", problem.workload->workflow.name())
      .field("objective", objective_name(problem.objective))
      .field("budget", budget_runs)
      .field("history", problem.components_are_history)
      .field("faults", problem.measurement.faults.enabled())
      .field("max_attempts", problem.measurement.max_attempts);
  tel->emit(std::move(event));
}

void emit_iteration_event(const TuningProblem& problem, const char* name,
                          std::size_t iteration, const Collector& collector,
                          std::size_t req_start, std::size_t ok_start,
                          double fit_s, double predict_s) {
  telemetry::Telemetry* tel = problem.telemetry;
  if (tel == nullptr) return;
  tel->count("tuner.iterations");
  const auto& requested = collector.measured_indices();
  // Deterministic distribution: successful measurements per batch is an
  // integer, so the histogram is byte-stable (see collector.cc).
  tel->observe("iteration.batch_ok",
               static_cast<double>(collector.ok_values().size() - ok_start));
  const auto& ok_values = collector.ok_values();
  telemetry::TraceEvent event(name);
  event.field("iteration", iteration)
      .field("batch", std::span<const std::size_t>(
                          requested.data() + req_start,
                          requested.size() - req_start))
      .field("batch_ok", ok_values.size() - ok_start)
      .field("batch_values",
             std::span<const double>(ok_values.data() + ok_start,
                                     ok_values.size() - ok_start))
      .field("budget_used", collector.runs_used())
      .field("budget_remaining", collector.remaining())
      .timing("fit_s", fit_s)
      .timing("predict_s", predict_s);
  tel->emit(std::move(event));
}

TunerProgress collector_progress(const Collector& collector) {
  TunerProgress progress;
  progress.budget_used = collector.runs_used();
  progress.budget_remaining = collector.remaining();
  if (collector.has_best_ok()) {
    progress.has_best = true;
    progress.best_value = collector.best_ok_value();
  }
  return progress;
}

void checkpoint_decision(
    const TuningProblem& problem, const char* kind,
    std::initializer_list<std::pair<const char*, json::Value>> fields) {
  CheckpointSession* checkpoint = problem.checkpoint;
  if (checkpoint == nullptr) return;
  json::Value payload = json::Value::object();
  payload.set("kind", json::Value::string(kind));
  for (const auto& [key, value] : fields) payload.set(key, value);
  checkpoint->decision(std::move(payload));
}

}  // namespace ceal::tuner
