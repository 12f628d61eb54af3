// Phase 1 in isolation: build per-component performance models from solo
// measurements, combine them with the analytical coupling model, and
// inspect how well the resulting low-fidelity model ranks *coupled*
// workflow configurations it has never seen (the paper's Fig. 4 idea).
#include <iostream>
#include <memory>

#include "core/stats.h"
#include "core/table.h"
#include "ml/metrics.h"
#include "sim/workloads.h"
#include "tuner/low_fidelity.h"
#include "tuner/measured_pool.h"
#include "tuner/pool_features.h"

int main() {
  using namespace ceal;
  using tuner::Objective;

  sim::Workload lv = sim::make_lv();
  const auto pool = tuner::measure_pool(lv.workflow, 500, 1);
  const auto comps = tuner::measure_components(lv.workflow, 500, 2);

  // Train each component model on its full solo-measurement archive.
  std::vector<std::vector<std::size_t>> all(comps.size());
  for (std::size_t j = 0; j < comps.size(); ++j) {
    all[j].resize(comps[j].size());
    for (std::size_t i = 0; i < comps[j].size(); ++i) all[j][i] = i;
  }

  Rng rng(3);
  Table table({"objective", "combiner", "spearman vs coupled",
               "recall top-5", "recall top-25"});
  for (const auto obj : {Objective::kExecTime, Objective::kComputerTime}) {
    auto models = std::make_shared<const tuner::ComponentModelSet>(
        lv.workflow, obj, comps, all, rng);

    // Per-component accuracy on the solo data itself.
    for (std::size_t j = 0; j < comps.size(); ++j) {
      std::vector<double> pred, act;
      for (std::size_t i = 0; i < comps[j].size(); ++i) {
        pred.push_back(models->predict(j, comps[j].configs[i]));
        act.push_back(comps[j].measured(obj)[i]);
      }
      std::cout << lv.workflow.app(j).name() << " model ("
                << tuner::objective_name(obj)
                << "): solo MdAPE = " << mdape_percent(act, pred) << "%\n";
    }

    // Combine and score the coupled pool.
    const tuner::LowFidelityModel low_fid(lv.workflow, obj, models);
    const auto scores = low_fid.score_many(
        tuner::featurize_joint(lv.workflow.joint_space(), pool.configs));
    const auto& measured = pool.measured(obj);
    table.add_row({tuner::objective_name(obj),
                   obj == Objective::kExecTime ? "max (Eqn. 1)"
                                               : "sum (Eqn. 2)",
                   Table::num(spearman(scores, measured)),
                   Table::num(ml::recall_score_percent(5, scores, measured),
                              0) +
                       "%",
                   Table::num(
                       ml::recall_score_percent(25, scores, measured), 0) +
                       "%"});
  }
  std::cout << "\n" << table
            << "\nThe component models are near-exact on solo runs, yet the "
               "combined score is only a *ranking*\nsignal for coupled "
               "runs — the low-fidelity gap that CEAL's Phase 2 closes "
               "with real workflow samples.\n";
  return 0;
}
