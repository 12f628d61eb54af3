// The session spec: the registry builds exactly the tuners it names,
// validate() holds every knob to the range the tuning code needs, and
// make_problem() carries the knobs into the TuningProblem.
#include "tuner/session_spec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <set>
#include <string>

namespace ceal::tuner {
namespace {

SessionSpec valid_spec() {
  SessionSpec spec;
  spec.workflow = "LV";
  spec.objective = "exec";
  spec.budget = 20;
  return spec;
}

std::string error_of(const SessionSpec& spec) {
  try {
    spec.validate();
  } catch (const SpecError& e) {
    return e.what();
  }
  return "";
}

TEST(SessionRegistry, EveryNameBuildsTheTunerOfThatName) {
  const auto& names = algorithm_names();
  EXPECT_EQ(names.size(), 7u);
  EXPECT_EQ(std::set<std::string>(names.begin(), names.end()).size(),
            names.size());
  for (const std::string& name : names) {
    EXPECT_EQ(algorithm_by_name(name)->name(), name);
  }
}

TEST(SessionRegistry, WorkflowsAndObjectivesRoundTrip) {
  for (const std::string name : {"LV", "HS", "GP"}) {
    EXPECT_EQ(workload_by_name(name).workflow.name(), name);
  }
  EXPECT_EQ(objective_by_name("exec"), Objective::kExecTime);
  EXPECT_EQ(objective_by_name("comp"), Objective::kComputerTime);
}

TEST(SessionRegistry, UnknownNamesAreOneLineFieldErrors) {
  EXPECT_THROW(algorithm_by_name("ceal"), SpecError);
  EXPECT_THROW(workload_by_name("lv"), SpecError);
  EXPECT_THROW(objective_by_name("exec_time"), SpecError);
  try {
    algorithm_by_name("MINE");
    FAIL() << "MINE is not registered";
  } catch (const SpecError& e) {
    EXPECT_STREQ(e.what(),
                 "algorithm: unknown value \"MINE\" (expected "
                 "CEAL|AL|RS|GEIST|ALpH|BO|BO-CEAL)");
  }
}

TEST(SessionSpecValidate, DefaultsWithTheRequiredKnobsAreValid) {
  EXPECT_EQ(error_of(valid_spec()), "");
  // The required knobs have no usable default.
  EXPECT_NE(error_of(SessionSpec{}), "");
}

TEST(SessionSpecValidate, RejectsEachKnobOutOfRange) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const struct {
    std::function<void(SessionSpec&)> edit;
    const char* error;
  } cases[] = {
      {[](SessionSpec& s) { s.workflow = "XX"; },
       "workflow: unknown value \"XX\""},
      {[](SessionSpec& s) { s.objective = "time"; },
       "objective: unknown value \"time\""},
      {[](SessionSpec& s) { s.algorithm = "BO_CEAL"; },
       "algorithm: unknown value \"BO_CEAL\""},
      {[](SessionSpec& s) { s.budget = 0; }, "budget: must be >= 1"},
      {[](SessionSpec& s) { s.pool_size = 0; }, "pool_size: must be >= 1"},
      {[](SessionSpec& s) { s.component_samples = 0; },
       "component_samples: must be >= 1"},
      {[](SessionSpec& s) { s.fault_rate = 1.0; },
       "fault_rate: must be in [0, 1), got 1"},
      {[](SessionSpec& s) { s.fault_rate = 1.5; },
       "fault_rate: must be in [0, 1), got 1.5"},
      {[](SessionSpec& s) { s.fault_rate = -0.1; },
       "fault_rate: must be in [0, 1), got -0.1"},
      {[nan](SessionSpec& s) { s.fault_rate = nan; },
       "fault_rate: must be in [0, 1), got nan"},
      {[](SessionSpec& s) { s.outlier_rate = 1.0; },
       "outlier_rate: must be in [0, 1), got 1"},
      {[](SessionSpec& s) { s.deadline_s = -1.0; },
       "deadline: must be >= 0, got -1"},
      {[nan](SessionSpec& s) { s.deadline_s = nan; },
       "deadline: must be >= 0, got nan"},
      {[](SessionSpec& s) { s.max_attempts = 0; },
       "max_attempts: must be >= 1"},
  };
  for (const auto& c : cases) {
    SessionSpec spec = valid_spec();
    c.edit(spec);
    const std::string error = error_of(spec);
    EXPECT_EQ(error.rfind(c.error, 0), 0u) << error;
    EXPECT_EQ(error.find('\n'), std::string::npos) << error;
  }
}

TEST(SessionSpecValidate, AcceptsTheEdgesOfEachRange) {
  SessionSpec spec = valid_spec();
  spec.budget = spec.pool_size = spec.component_samples = 1;
  spec.max_attempts = 1;
  spec.fault_rate = spec.outlier_rate = std::nextafter(1.0, 0.0);
  spec.deadline_s = 0.0;
  EXPECT_EQ(error_of(spec), "");
}

TEST(SessionSpecProblem, CarriesTheKnobsIntoTheProblem) {
  SessionSpec spec = valid_spec();
  spec.objective = "comp";
  spec.history = true;
  spec.fault_rate = 0.25;
  spec.outlier_rate = 0.125;
  spec.deadline_s = 900.0;
  spec.max_attempts = 3;
  const sim::Workload wl = workload_by_name(spec.workflow);
  const MeasuredPool pool;
  const std::vector<ComponentSamples> comps;
  const TuningProblem problem = make_problem(spec, wl, pool, comps);
  EXPECT_EQ(problem.workload, &wl);
  EXPECT_EQ(problem.pool, &pool);
  EXPECT_EQ(problem.component_samples, &comps);
  EXPECT_EQ(problem.objective, Objective::kComputerTime);
  EXPECT_TRUE(problem.components_are_history);
  EXPECT_EQ(problem.measurement.faults.fail_prob, 0.25);
  EXPECT_EQ(problem.measurement.faults.outlier_prob, 0.125);
  EXPECT_EQ(problem.measurement.faults.deadline_s, 900.0);
  EXPECT_EQ(problem.measurement.max_attempts, 3u);
  EXPECT_EQ(problem.telemetry, nullptr);
  EXPECT_EQ(problem.measure, nullptr);
  EXPECT_EQ(problem.checkpoint, nullptr);
  EXPECT_EQ(spec.component_seed(), spec.pool_seed + 1);
}

}  // namespace
}  // namespace ceal::tuner
