#include "tuner/collector.h"

#include <algorithm>
#include <limits>
#include <span>

#include "core/backoff.h"
#include "core/error.h"
#include "core/telemetry.h"
#include "measure/backend.h"
#include "tuner/checkpoint.h"

namespace ceal::tuner {

namespace {

/// Stream tag for the fault-injection generator split off the tuner rng.
constexpr std::uint64_t kFaultStream = 0xFA171A7EULL;

/// Seed root of the per-request retry-backoff streams (xor'd with the
/// pool index, so the virtual delay schedule of a request is a function
/// of the request alone — independent of request order and of the fault
/// stream).
constexpr std::uint64_t kBackoffSeed = 0xBACC0FFULL;

}  // namespace

Collector::Collector(const TuningProblem& problem, std::size_t budget_runs,
                     ceal::Rng* rng)
    : problem_(&problem), budget_(budget_runs) {
  CEAL_EXPECT(problem.workload != nullptr);
  CEAL_EXPECT(problem.pool != nullptr);
  CEAL_EXPECT(problem.component_samples != nullptr);
  CEAL_EXPECT(budget_runs >= 1);
  CEAL_EXPECT_MSG(problem.measurement.max_attempts >= 1,
                  "measurement policy needs at least one attempt");
  faults_enabled_ = problem.measurement.faults.enabled();
  if (faults_enabled_) {
    problem.measurement.faults.validate();
    CEAL_EXPECT_MSG(rng != nullptr,
                    "fault-injecting measurements need an rng");
    fault_rng_ = rng->split(kFaultStream);
  }
  seen_.assign(problem.pool->size(), false);
  outcomes_.resize(problem.pool->size());

  const std::size_t n_components = problem.component_samples->size();
  component_indices_.resize(n_components);
  component_unused_.resize(n_components);
  for (std::size_t j = 0; j < n_components; ++j) {
    const std::size_t n = (*problem.component_samples)[j].size();
    component_unused_[j].resize(n);
    for (std::size_t i = 0; i < n; ++i) component_unused_[j][i] = i;
  }
}

void Collector::charge(std::size_t units) {
  CEAL_EXPECT_MSG(runs_used_ + units <= budget_,
                  "data-collection budget exhausted");
  runs_used_ += units;
}

void Collector::record(std::size_t pool_index,
                       const MeasureOutcome& outcome) {
  seen_[pool_index] = true;
  outcomes_[pool_index] = outcome;
  measured_.push_back(pool_index);
  statuses_.push_back(outcome.status);
  if (outcome.status == sim::RunStatus::kOk) {
    values_.push_back(outcome.value);
    if (ok_values_.empty() || outcome.value < best_ok_value_) {
      best_ok_value_ = outcome.value;
      best_ok_index_ = pool_index;
    }
    ok_indices_.push_back(pool_index);
    ok_values_.push_back(outcome.value);
  } else {
    values_.push_back(std::numeric_limits<double>::quiet_NaN());
  }
}

MeasureOutcome Collector::try_measure(std::size_t pool_index) {
  const MeasuredPool& pool = *problem_->pool;
  CEAL_EXPECT(pool_index < pool.size());
  telemetry::ScopedSpan measure_span(problem_->telemetry,
                                           "collector.measure");
  if (seen_[pool_index]) {
    // Cached repeat — same verdict, no charge. A configuration that
    // failed stays failed; retrying it costs a fresh entry elsewhere.
    if (telemetry::Telemetry* tel = problem_->telemetry) {
      tel->count("measure.cached");
    }
    MeasureOutcome cached = outcomes_[pool_index];
    cached.attempts = 0;
    return cached;
  }

  CheckpointSession* checkpoint = problem_->checkpoint;
  MeasureOutcome out;
  const std::size_t used_before = runs_used_;
  const double exec_before = cost_exec_s_;
  const double backoff_before = backoff_total_s_;
  MeasureRecord journaled;
  bool replayed = false;
  if (checkpoint != nullptr &&
      checkpoint->replay_measure(pool_index, journaled)) {
    // Served from the journal: the run's machine time was already spent
    // before the crash, so restore the recorded outcome and ledger
    // totals instead of re-running. The fault stream position is handed
    // across the crash point so the first live attempt afterwards draws
    // exactly what the uninterrupted session would have drawn.
    replayed = true;
    CEAL_EXPECT_MSG(journaled.budget_used >= runs_used_ &&
                        journaled.budget_used <= budget_,
                    "journaled measurement does not fit the budget ledger");
    runs_used_ = journaled.budget_used;
    cost_exec_s_ = journaled.cost_exec_s;
    cost_comp_ch_ = journaled.cost_comp_ch;
    out.status = journaled.status;
    out.value = journaled.value;
    out.attempts = journaled.attempts;
    if (faults_enabled_) fault_rng_.set_state(journaled.fault_rng_state);
  } else {
    charge(1);  // the first attempt always costs one unit (throws when dry)
    // Raw run data: the problem's backend when one is attached (which
    // must return the pool row bitwise — measure/backend.h), else the
    // pool row read inline. Executed only on the live path: a replayed
    // measurement's machine time was spent before the crash.
    double exec = pool.exec_s[pool_index];
    double comp = pool.comp_ch[pool_index];
    if (measure::MeasureBackend* backend = problem_->measure) {
      const measure::RawRun raw = backend->run(pool_index);
      exec = raw.exec_s;
      comp = raw.comp_ch;
    }
    const double value =
        problem_->objective == Objective::kExecTime ? exec : comp;
    out.attempts = 1;
    if (!faults_enabled_) {
      out.status = sim::RunStatus::kOk;
      out.value = value;
      cost_exec_s_ += exec;
      cost_comp_ch_ += comp;
    } else {
      const MeasurementPolicy& policy = problem_->measurement;
      // Virtual delay schedule between retries: deterministic per
      // request (seed is a function of the pool index alone), accounted
      // but never slept. Retrying is bounded by max_attempts and the
      // budget exactly as before — the schedule never decides whether
      // an attempt runs.
      Backoff backoff(policy.retry_backoff, kBackoffSeed ^ pool_index);
      for (;;) {
        const sim::FaultOutcome fo =
            sim::apply_faults(policy.faults, exec, fault_rng_);
        // Bill the wall-clock the attempt actually held the allocation;
        // core-hours scale with the same fraction of the run.
        cost_exec_s_ += fo.elapsed_s;
        cost_comp_ch_ += comp * (fo.elapsed_s / exec);
        if (fo.status == sim::RunStatus::kOk) {
          out.status = sim::RunStatus::kOk;
          out.value = value * fo.value_factor;
          break;
        }
        out.status = fo.status;
        if (out.attempts >= policy.max_attempts) break;
        if (policy.charge_retries) {
          // A retry that the budget cannot cover is not taken: the entry
          // keeps its failure status and the ledger stays exactly spent.
          if (remaining() == 0) break;
          charge(1);
        }
        backoff_total_s_ += backoff.next_delay_s();
        ++out.attempts;
      }
    }
  }
  record(pool_index, out);
  if (checkpoint != nullptr && !replayed) {
    journaled.pool_index = pool_index;
    journaled.status = out.status;
    journaled.value = out.status == sim::RunStatus::kOk ? out.value : 0.0;
    journaled.attempts = out.attempts;
    journaled.budget_used = runs_used_;
    journaled.cost_exec_s = cost_exec_s_;
    journaled.cost_comp_ch = cost_comp_ch_;
    if (faults_enabled_) journaled.fault_rng_state = fault_rng_.state();
    checkpoint->record_measure(journaled);
  }
  if (telemetry::Telemetry* tel = problem_->telemetry) {
    tel->count("measure.requests");
    switch (out.status) {
      case sim::RunStatus::kOk: tel->count("measure.ok"); break;
      case sim::RunStatus::kFailed: tel->count("measure.failed"); break;
      case sim::RunStatus::kCensored: tel->count("measure.censored"); break;
    }
    if (out.attempts > 1) tel->count("measure.retries", out.attempts - 1);
    tel->gauge("budget.remaining", static_cast<double>(remaining()));
    // Deterministic distributions: attempts and charged units are
    // integer-valued, so count/sum/buckets are exact and independent of
    // merge order — they stay inside the byte-stability contract.
    tel->observe("measure.attempts", static_cast<double>(out.attempts));
    tel->observe("measure.charged_units",
                 static_cast<double>(runs_used_ - used_before));
    if (!replayed && out.attempts > 1) {
      // timing.* namespace: replayed sessions never re-run retries, so
      // this histogram is not part of the byte-stability contract (the
      // determinism gates strip `timing`).
      tel->observe("timing.measure.backoff_s",
                   backoff_total_s_ - backoff_before);
    }
    telemetry::TraceEvent event("measure");
    event.field("pool_index", pool_index)
        .field("status", sim::run_status_name(out.status))
        .field("attempts", out.attempts)
        .field("charged_units", runs_used_ - used_before)
        .field("charged_exec_s", cost_exec_s_ - exec_before)
        .field("budget_used", runs_used_)
        .field("budget_remaining", remaining());
    if (out.status == sim::RunStatus::kOk) event.field("value", out.value);
    tel->emit(std::move(event));
  }
  return out;
}

double Collector::measure(std::size_t pool_index) {
  const MeasureOutcome out = try_measure(pool_index);
  CEAL_EXPECT_MSG(out.status == sim::RunStatus::kOk,
                  "measurement did not produce a value (status: " +
                      std::string(sim::run_status_name(out.status)) + ")");
  return out.value;
}

bool Collector::is_measured(std::size_t pool_index) const {
  CEAL_EXPECT(pool_index < seen_.size());
  return seen_[pool_index];
}

void Collector::prefetch(std::span<const std::size_t> indices) {
  measure::MeasureBackend* backend = problem_->measure;
  if (backend == nullptr) return;
  // During journal replay the measurements are served from the record —
  // the backend never sees them, so it must not start runs for them.
  if (problem_->checkpoint != nullptr && problem_->checkpoint->replaying()) {
    return;
  }
  std::vector<std::size_t> fresh;
  fresh.reserve(indices.size());
  for (const std::size_t index : indices) {
    CEAL_EXPECT(index < seen_.size());
    if (!seen_[index]) fresh.push_back(index);
  }
  if (!fresh.empty()) backend->prefetch(fresh);
}

const std::vector<std::vector<std::size_t>>&
Collector::acquire_component_samples(std::size_t rounds, ceal::Rng& rng) {
  if (rounds == 0) return component_indices_;
  // A round is effective while at least one component pool still has
  // unused samples; requests beyond that neither draw nor charge.
  std::size_t capacity = 0;
  for (const auto& unused : component_unused_) {
    capacity = std::max(capacity, unused.size());
  }
  const std::size_t effective = std::min(rounds, capacity);
  if (effective == 0) return component_indices_;
  if (!problem_->components_are_history) charge(effective);

  const auto& samples = *problem_->component_samples;
  std::vector<std::vector<std::size_t>> drawn(samples.size());
  for (std::size_t j = 0; j < samples.size(); ++j) {
    auto& unused = component_unused_[j];
    const std::size_t take = std::min(effective, unused.size());
    for (std::size_t r = 0; r < take; ++r) {
      const std::size_t pick = rng.uniform_u64(unused.size());
      const std::size_t idx = unused[pick];
      unused[pick] = unused.back();
      unused.pop_back();
      component_indices_[j].push_back(idx);
      drawn[j].push_back(idx);
      cost_exec_s_ += samples[j].exec_s[idx];
      cost_comp_ch_ += samples[j].comp_ch[idx];
    }
  }
  if (CheckpointSession* checkpoint = problem_->checkpoint) {
    // Component draws come off the caller's rng and are recomputed on
    // resume; the record cross-checks the replayed draws (and the rng
    // stream position they imply) against the journaled session.
    json::Value payload = json::Value::object();
    payload.set("kind", json::Value::string("components"));
    payload.set("rounds",
                json::Value::number(static_cast<std::uint64_t>(effective)));
    payload.set("budget_used",
                json::Value::number(static_cast<std::uint64_t>(runs_used_)));
    payload.set("rng", rng_state_to_json(rng.state()));
    json::Value indices = json::Value::array();
    for (const auto& per_component : drawn) {
      json::Value one = json::Value::array();
      for (const std::size_t idx : per_component) {
        one.push(json::Value::number(static_cast<std::uint64_t>(idx)));
      }
      indices.push(std::move(one));
    }
    payload.set("drawn", std::move(indices));
    checkpoint->decision(std::move(payload));
  }
  if (telemetry::Telemetry* tel = problem_->telemetry) {
    tel->count("components.rounds", effective);
    telemetry::TraceEvent event("components");
    event.field("rounds_requested", rounds)
        .field("rounds_effective", effective)
        .field("charged", !problem_->components_are_history)
        .field("budget_used", runs_used_)
        .field("budget_remaining", remaining());
    std::vector<std::size_t> per_component(component_indices_.size());
    for (std::size_t j = 0; j < component_indices_.size(); ++j) {
      per_component[j] = component_indices_[j].size();
    }
    event.field("samples_per_component",
                std::span<const std::size_t>(per_component));
    tel->emit(std::move(event));
  }
  return component_indices_;
}

const std::vector<std::vector<std::size_t>>&
Collector::all_component_samples() {
  CEAL_EXPECT_MSG(problem_->components_are_history,
                  "free component samples require history mode");
  const auto& samples = *problem_->component_samples;
  for (std::size_t j = 0; j < samples.size(); ++j) {
    component_indices_[j].clear();
    component_indices_[j].resize(samples[j].size());
    for (std::size_t i = 0; i < samples[j].size(); ++i) {
      component_indices_[j][i] = i;
    }
    component_unused_[j].clear();
  }
  return component_indices_;
}

}  // namespace ceal::tuner
