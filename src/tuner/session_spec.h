// The one definition of a tuning session: the knobs every front end
// exposes (ceal_tune flags, the session.create request and its durable
// manifest), their defaults and valid ranges, and the name registry that
// turns them into a workload, an objective and a tuner. The paper's
// comparisons (§7) hold budget, pool and fault model fixed across
// tuners, so ceal_tune, ceal_serve and the benches all build sessions
// from here.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/error.h"
#include "sim/workloads.h"
#include "tuner/autotuner.h"

namespace ceal::tuner {

/// A rejected knob or name; what() is one line "<field>: why", where
/// <field> is the knob's request/manifest key.
class SpecError : public PreconditionError {
 public:
  using PreconditionError::PreconditionError;
};

struct SessionSpec {
  std::string workflow;            ///< LV | HS | GP (required)
  std::string objective;           ///< exec | comp (required)
  std::string algorithm = "CEAL";  ///< an algorithm_names() entry
  std::size_t budget = 0;          ///< required, >= 1
  std::uint64_t seed = 42;
  std::size_t pool_size = 2000;
  std::uint64_t pool_seed = 1;
  std::size_t component_samples = 500;
  bool history = false;
  // Fault model: per-attempt rates, a walltime deadline (0 disables it)
  // and the attempts per measurement request.
  double fault_rate = 0.0;
  double outlier_rate = 0.0;
  double deadline_s = 0.0;
  std::size_t max_attempts = 1;

  /// Seed of the component measurements: the pool's, plus one.
  std::uint64_t component_seed() const { return pool_seed + 1; }

  /// Throws SpecError for the first bad knob in field order: a name not
  /// registered, a count below 1, a rate outside [0, 1), a negative
  /// deadline.
  void validate() const;
};

/// Calls f(key, member) for every knob of `spec` (const or not) in
/// manifest order; the keys are the request/manifest field names.
template <typename Spec, typename F>
void for_each_knob(Spec& spec, F&& f) {
  f("workflow", spec.workflow);
  f("objective", spec.objective);
  f("algorithm", spec.algorithm);
  f("budget", spec.budget);
  f("seed", spec.seed);
  f("pool_size", spec.pool_size);
  f("pool_seed", spec.pool_seed);
  f("component_samples", spec.component_samples);
  f("history", spec.history);
  f("fault_rate", spec.fault_rate);
  f("outlier_rate", spec.outlier_rate);
  f("deadline", spec.deadline_s);
  f("max_attempts", spec.max_attempts);
}

/// The registered tuner names, in the order error messages list them.
const std::vector<std::string>& algorithm_names();

/// The registry's lookups (LV|HS|GP, exec|comp); each throws SpecError
/// for an unregistered name.
std::unique_ptr<AutoTuner> algorithm_by_name(const std::string& name);
sim::Workload workload_by_name(const std::string& name);
Objective objective_by_name(const std::string& name);

/// The session's problem over its measured inputs: objective, history
/// flag and measurement policy come from `spec`; the optional hooks
/// (telemetry, checkpoint, backend) are left unset.
TuningProblem make_problem(const SessionSpec& spec,
                           const sim::Workload& workload,
                           const MeasuredPool& pool,
                           const std::vector<ComponentSamples>& components);

}  // namespace ceal::tuner
