// `ceal_tune --save-model` persists a surrogate fitted on what the
// session observed. Under faults, failed and censored attempts observed
// no value, so the model must be fitted on the kOk entries alone: the
// CLI's file is byte-compared with an ok-only fit of the same seeded
// session, run in process.
//
// CEAL_TUNE_BIN (a compile definition from tests/CMakeLists.txt) is the
// build-tree path of the real ceal_tune binary.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/rng.h"
#include "ml/dataset.h"
#include "ml/gbt.h"
#include "ml/serialize.h"
#include "tuner/session_spec.h"

namespace ceal::tuner {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

TEST(SaveModel, FitsOnlyTheValuesTheSessionObserved) {
  SessionSpec spec;
  spec.workflow = "LV";
  spec.objective = "exec";
  spec.budget = 50;
  spec.seed = 3;
  spec.fault_rate = 0.3;

  const std::string cli_model = ::testing::TempDir() + "ceal_cli.gbt";
  const std::string command =
      std::string("'") + CEAL_TUNE_BIN +
      "' --workflow LV --objective exec --budget 50 --seed 3"
      " --fault-rate 0.3 --quiet --save-model '" +
      cli_model + "' > /dev/null";
  ASSERT_EQ(std::system(command.c_str()), 0) << command;

  const sim::Workload wl = workload_by_name(spec.workflow);
  const MeasuredPool pool =
      measure_pool(wl.workflow, spec.pool_size, spec.pool_seed);
  const auto comps = measure_components(wl.workflow, spec.component_samples,
                                        spec.component_seed());
  const TuningProblem problem = make_problem(spec, wl, pool, comps);
  Rng rng(spec.seed);
  const TuneResult result =
      algorithm_by_name(spec.algorithm)->tune(problem, spec.budget, rng);

  const auto& space = wl.workflow.joint_space();
  ml::Dataset data(space.dimension());
  std::size_t unobserved = 0;
  for (std::size_t k = 0; k < result.measured_indices.size(); ++k) {
    if (result.measured_statuses[k] != sim::RunStatus::kOk) {
      ++unobserved;
      continue;
    }
    const std::size_t i = result.measured_indices[k];
    data.add(space.features(pool.configs[i]),
             std::log(pool.measured(problem.objective)[i]));
  }
  // The session must have failed attempts for this test to mean much.
  ASSERT_GT(unobserved, 0u);
  ml::GradientBoostedTrees model(problem.surrogate_gbt);
  Rng model_rng(spec.seed + 1);
  model.fit(data, model_rng);
  const std::string ok_model = ::testing::TempDir() + "ceal_ok_only.gbt";
  ml::save_gbt_file(model, ok_model, space.dimension());

  EXPECT_EQ(slurp(cli_model), slurp(ok_model));
  std::remove(cli_model.c_str());
  std::remove(ok_model.c_str());
}

}  // namespace
}  // namespace ceal::tuner
