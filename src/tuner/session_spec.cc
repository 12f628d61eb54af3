#include "tuner/session_spec.h"

#include <cmath>
#include <sstream>

#include "tuner/active_learning.h"
#include "tuner/alph.h"
#include "tuner/bayes_opt.h"
#include "tuner/ceal.h"
#include "tuner/geist.h"
#include "tuner/random_search.h"

namespace ceal::tuner {

namespace {

template <typename T>
std::unique_ptr<AutoTuner> make() {
  return std::make_unique<T>();
}

std::unique_ptr<AutoTuner> make_bo_ceal() {
  BayesOptParams params;
  params.bootstrap_with_low_fidelity = true;
  return std::make_unique<BayesOpt>(params);
}

// The name -> tuner registry: adding a tuner is one entry here.
const struct {
  const char* name;
  std::unique_ptr<AutoTuner> (*make)();
} kAlgorithms[] = {{"CEAL", make<Ceal>},       {"AL", make<ActiveLearning>},
                   {"RS", make<RandomSearch>}, {"GEIST", make<Geist>},
                   {"ALpH", make<Alph>},       {"BO", make<BayesOpt>},
                   {"BO-CEAL", make_bo_ceal}};

const struct {
  const char* name;
  sim::Workload (*make)();
} kWorkflows[] = {{"LV", sim::make_lv}, {"HS", sim::make_hs},
                  {"GP", sim::make_gp}};

const struct {
  const char* name;
  Objective objective;
} kObjectives[] = {{"exec", Objective::kExecTime},
                   {"comp", Objective::kComputerTime}};

/// The entry of `table` named `name`; throws "<field>: unknown value".
template <typename Table>
const auto& lookup(const Table& table, const std::string& name,
                   const char* field) {
  std::string expected;
  for (const auto& entry : table) {
    if (name == entry.name) return entry;
    expected += (expected.empty() ? "" : "|") + std::string(entry.name);
  }
  throw SpecError(std::string(field) + ": unknown value \"" + name +
                  "\" (expected " + expected + ")");
}

// lower <= value < upper (an infinite upper bound included), NaN
// excluded; counts convert exactly below 2^53, and only 0 fails.
void require_range(double value, double lower, double upper,
                   const char* field, const char* range) {
  if (value >= lower && (value < upper || std::isinf(upper))) return;
  std::ostringstream os;
  os << field << ": must be " << range << ", got " << value;
  throw SpecError(os.str());
}

}  // namespace

void SessionSpec::validate() const {
  lookup(kWorkflows, workflow, "workflow");
  lookup(kObjectives, objective, "objective");
  lookup(kAlgorithms, algorithm, "algorithm");
  require_range(budget, 1, HUGE_VAL, "budget", ">= 1");
  require_range(pool_size, 1, HUGE_VAL, "pool_size", ">= 1");
  require_range(component_samples, 1, HUGE_VAL, "component_samples", ">= 1");
  // A rate of 1 would fail (or corrupt) every attempt.
  require_range(fault_rate, 0, 1, "fault_rate", "in [0, 1)");
  require_range(outlier_rate, 0, 1, "outlier_rate", "in [0, 1)");
  require_range(deadline_s, 0, HUGE_VAL, "deadline", ">= 0");
  require_range(max_attempts, 1, HUGE_VAL, "max_attempts", ">= 1");
}

const std::vector<std::string>& algorithm_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const auto& entry : kAlgorithms) out.emplace_back(entry.name);
    return out;
  }();
  return names;
}

std::unique_ptr<AutoTuner> algorithm_by_name(const std::string& name) {
  return lookup(kAlgorithms, name, "algorithm").make();
}

sim::Workload workload_by_name(const std::string& name) {
  return lookup(kWorkflows, name, "workflow").make();
}

Objective objective_by_name(const std::string& name) {
  return lookup(kObjectives, name, "objective").objective;
}

TuningProblem make_problem(const SessionSpec& spec,
                           const sim::Workload& workload,
                           const MeasuredPool& pool,
                           const std::vector<ComponentSamples>& components) {
  TuningProblem problem{&workload, objective_by_name(spec.objective), &pool,
                        &components, spec.history, {}};
  problem.measurement.faults.fail_prob = spec.fault_rate;
  problem.measurement.faults.outlier_prob = spec.outlier_rate;
  problem.measurement.faults.deadline_s = spec.deadline_s;
  problem.measurement.max_attempts = spec.max_attempts;
  return problem;
}

}  // namespace ceal::tuner
