// Pre-measured configuration pools.
//
// Following §7.1, a sample pool C_pool of N joint configurations is drawn
// uniformly from the (constrained) configuration space and each entry is
// measured once; all auto-tuning algorithms select their training samples
// from this pool and the same measurements serve as the test set. The
// per-component pools (500 random solo runs each) provide component-model
// training data and the "historical measurements" D_hist of §7.5.
#pragma once

#include <cstdint>
#include <vector>

#include "config/config_space.h"
#include "core/backoff.h"
#include "ml/gbt.h"
#include "sim/fault_model.h"
#include "sim/workflow.h"
#include "sim/workloads.h"
#include "tuner/objective.h"

namespace ceal::telemetry {
class Telemetry;
}

namespace ceal::measure {
class MeasureBackend;
}

namespace ceal::tuner {

class CheckpointSession;

struct MeasuredPool {
  std::vector<config::Configuration> configs;
  std::vector<double> exec_s;   ///< one noisy measurement per config
  std::vector<double> comp_ch;
  /// Noise-free expected values, used only by the evaluation harness to
  /// report the actual performance of recommended configurations.
  std::vector<double> true_exec_s;
  std::vector<double> true_comp_ch;

  std::size_t size() const { return configs.size(); }

  const std::vector<double>& measured(Objective objective) const {
    return objective == Objective::kExecTime ? exec_s : comp_ch;
  }

  const std::vector<double>& truth(Objective objective) const {
    return objective == Objective::kExecTime ? true_exec_s : true_comp_ch;
  }

  /// Index of the best (smallest) measured value for the objective.
  std::size_t best_index(Objective objective) const;

  /// Index of the best noise-free value for the objective.
  std::size_t best_truth_index(Objective objective) const;
};

/// Solo measurements of one component application.
struct ComponentSamples {
  std::vector<config::Configuration> configs;  ///< component-local configs
  std::vector<double> exec_s;
  std::vector<double> comp_ch;

  std::size_t size() const { return configs.size(); }

  const std::vector<double>& measured(Objective objective) const {
    return objective == Objective::kExecTime ? exec_s : comp_ch;
  }
};

/// Draws `n` distinct random valid joint configurations and measures
/// each once. Throws PreconditionError when the valid space cannot
/// supply `n` distinct configurations.
MeasuredPool measure_pool(const sim::InSituWorkflow& workflow, std::size_t n,
                          std::uint64_t seed);

/// Draws and measures `n_per_component` random solo runs per component.
/// Unconfigurable components get a single sample (their space is trivial).
std::vector<ComponentSamples> measure_components(
    const sim::InSituWorkflow& workflow, std::size_t n_per_component,
    std::uint64_t seed);

/// How the collector turns a measurement request into run attempts.
/// The default policy (no faults, one attempt) reproduces the paper's
/// clean collector exactly — same budget accounting, same rng draws.
struct MeasurementPolicy {
  /// Fault injection applied to every run attempt (disabled by default).
  sim::FaultModel faults;
  /// Attempts per measurement request before the entry is recorded with
  /// its failure status. Must be >= 1.
  std::size_t max_attempts = 1;
  /// When true every retry charges one budget unit like a fresh run;
  /// when false only the first attempt is charged (e.g. the facility
  /// refunds faulted jobs). Retries never over-spend: if the budget
  /// cannot cover a re-charge, retrying stops and the entry keeps its
  /// failure status.
  bool charge_retries = true;
  /// Delay schedule between retry attempts (core/backoff.h). Delays are
  /// *virtual*: the collector draws them from a deterministic
  /// per-request stream and accounts them under the
  /// `timing.measure.backoff_s` histogram without sleeping — the
  /// simulated facility requeues the job, the tuning session does not
  /// wait. Never changes which attempts run, what they cost, or any
  /// result byte.
  BackoffPolicy retry_backoff;
};

/// Everything one tuning experiment needs, bundled.
struct TuningProblem {
  const sim::Workload* workload = nullptr;
  Objective objective = Objective::kExecTime;
  const MeasuredPool* pool = nullptr;
  /// Per-component solo measurements (same order as workflow components).
  const std::vector<ComponentSamples>* component_samples = nullptr;
  /// When true, component samples are treated as historical data D_hist
  /// and cost nothing; otherwise algorithms that use them must charge
  /// their budget (CEAL's m_R).
  bool components_are_history = false;
  /// Fault/retry behaviour of workflow measurements (defaults to the
  /// clean collector of §2.2).
  MeasurementPolicy measurement;
  /// Optional observability hook (core/telemetry.h): when set, the
  /// collector and every tuner record counters/spans and emit structured
  /// trace events into it. Null (the default) disables all
  /// instrumentation at the cost of one pointer branch per site; the
  /// tuning session's results are identical either way. Not owned; must
  /// outlive the session. The registry is safe under concurrent writers;
  /// for parallel replications tuner::evaluate gives each replication a
  /// child instance and merges them in replication order, so trace event
  /// order stays a deterministic function of the seed (core/telemetry.h).
  telemetry::Telemetry* telemetry = nullptr;
  /// Optional crash-safety hook (tuner/checkpoint.h): when set, the
  /// collector journals every measurement outcome and the tuners journal
  /// their decision points, and a resumed session replays the journal to
  /// reconstruct mid-session state. Null (the default) disables
  /// checkpointing at the cost of one pointer branch per site; results
  /// are bitwise identical either way. Not owned; must outlive the
  /// session. Normally set through AutoTuner's resumable tune overload
  /// rather than by hand.
  CheckpointSession* checkpoint = nullptr;
  /// Optional measurement execution backend (measure/backend.h): where
  /// the raw run data of each measurement comes from. Null (the
  /// default) reads the pool rows inline — the paper's collector.
  /// A backend must return the pool rows bitwise (backends are dispatch
  /// strategies, not data sources), so sessions are identical under any
  /// backend; the subprocess fan-out plane (measure/subprocess.h) adds
  /// fault tolerance and parallelism behind this pointer. Not owned;
  /// must outlive the session.
  measure::MeasureBackend* measure = nullptr;
  /// Boosted-tree parameters for every surrogate the tuners train (the
  /// high-fidelity model and the per-component models). The default is
  /// the exact trainer the reproduction results are pinned to; large
  /// pools opt into the quantized trainer here (`ceal_tune
  /// --gbt-backend quantized`).
  ml::GbtParams surrogate_gbt = ml::GradientBoostedTrees::surrogate_defaults();
};

}  // namespace ceal::tuner
