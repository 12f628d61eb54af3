// ceal_pool — generate and measure a configuration pool (and optionally
// the per-component solo samples) for a benchmark workflow, saving them
// as CSV for reuse by ceal_tune and external analysis.
//
//   ceal_pool --workflow LV --size 2000 --seed 7 --out lv_pool.csv
//   ceal_pool --workflow HS --size 500 --out hs.csv --components hs_comp
#include <iostream>

#include "core/table.h"
#include "tools/args.h"
#include "tuner/measured_pool.h"
#include "tuner/pool_io.h"
#include "tuner/session_spec.h"

namespace {

constexpr const char* kUsage =
    "--workflow LV|HS|GP --out FILE\n"
    "  [--size N]         pool size (default 2000)\n"
    "  [--seed S]         measurement seed (default 1)\n"
    "  [--components PREFIX]  also save PREFIX_<app>.csv solo samples\n"
    "  [--component-samples N]  solo samples per app (default 500)";

}  // namespace

int main(int argc, char** argv) {
  using namespace ceal;
  tools::Args args(argc, argv, kUsage);
  // The pool and component samples a session with these knobs measures.
  // ceal_pool tunes nothing: the objective and budget only satisfy
  // validate(), which checks the workflow and the counts before anything
  // is measured.
  tuner::SessionSpec spec;
  spec.workflow = args.required("workflow");
  spec.objective = "exec";
  spec.budget = 1;
  const auto out = args.required("out");
  spec.pool_size = args.integer("size", spec.pool_size);
  spec.pool_seed = args.integer("seed", spec.pool_seed);
  const auto components_prefix = args.option("components", "");
  spec.component_samples =
      args.integer("component-samples", spec.component_samples);
  args.finish();
  args.or_exit([&] { spec.validate(); });

  // Measure everything before writing anything, so a failed run leaves
  // no files behind.
  const sim::Workload wl = tuner::workload_by_name(spec.workflow);
  const auto pool = args.or_exit([&] {
    return tuner::measure_pool(wl.workflow, spec.pool_size, spec.pool_seed);
  });
  const auto comps = args.or_exit([&] {
    return components_prefix.empty()
               ? std::vector<tuner::ComponentSamples>{}
               : tuner::measure_components(wl.workflow,
                                           spec.component_samples,
                                           spec.component_seed());
  });
  tuner::save_pool_csv(pool, wl.workflow.joint_space(), out);

  const auto exec_best = pool.best_index(tuner::Objective::kExecTime);
  const auto comp_best = pool.best_index(tuner::Objective::kComputerTime);
  std::cout << "measured " << pool.size() << " configurations of "
            << wl.workflow.name() << " -> " << out << "\n"
            << "  best exec: " << Table::num(pool.exec_s[exec_best], 2)
            << " s at " << config::to_string(pool.configs[exec_best]) << "\n"
            << "  best comp: " << Table::num(pool.comp_ch[comp_best], 3)
            << " ch at " << config::to_string(pool.configs[comp_best])
            << "\n";
  for (std::size_t j = 0; j < comps.size(); ++j) {
    const std::string path =
        components_prefix + "_" + wl.workflow.app(j).name() + ".csv";
    tuner::save_component_csv(comps[j], wl.workflow.app(j).space(), path);
    std::cout << "  " << comps[j].size() << " solo samples of "
              << wl.workflow.app(j).name() << " -> " << path << "\n";
  }
  return 0;
}
