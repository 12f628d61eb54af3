// Fig. 4: recall scores of the low-fidelity combination functions
// (max-of-execution-time, sum-of-computer-time) when scoring 500 random
// LV configurations, against random selection.
#include <iostream>
#include <memory>

#include "bench/common.h"
#include "core/csv.h"
#include "core/table.h"
#include "ml/metrics.h"
#include "tuner/low_fidelity.h"
#include "tuner/pool_features.h"

int main() {
  using namespace ceal;
  using namespace ceal::tuner;
  bench::banner("Recall of ACM combination functions on LV", "Fig. 4");
  const auto& env = bench::Env::instance();
  const std::size_t lv = env.index_of("LV");
  const auto& wl = env.workload(lv);
  const auto& pool = env.pool(lv);
  const auto& comps = env.components(lv);

  // Component models from the full 500-sample histories (§7.1).
  std::vector<std::vector<std::size_t>> all(comps.size());
  for (std::size_t j = 0; j < comps.size(); ++j) {
    all[j].resize(comps[j].size());
    for (std::size_t i = 0; i < comps[j].size(); ++i) all[j][i] = i;
  }

  // Score the first 500 pool configurations, as in the paper.
  const std::size_t n = 500;
  const ml::FeatureMatrix sub = featurize_joint(
      wl.workflow.joint_space(),
      std::span(pool.configs.data(), n));

  Rng rng(99);
  Table table({"top-n", "max of exec time (%)", "random (exec) (%)",
               "sum of comp time (%)", "random (comp) (%)"});
  CsvWriter csv("fig4_combination_recall.csv",
                {"top_n", "max_exec", "random_exec", "sum_comp",
                 "random_comp"});

  std::vector<std::vector<double>> columns(4);
  for (const auto obj :
       {Objective::kExecTime, Objective::kComputerTime}) {
    auto cm = std::make_shared<const ComponentModelSet>(wl.workflow, obj,
                                                        comps, all, rng);
    const LowFidelityModel lf(wl.workflow, obj, cm);
    const auto scores = lf.score_many(sub);
    std::vector<double> meas(pool.measured(obj).begin(),
                             pool.measured(obj).begin() + n);

    // Random-ordering baseline, averaged over replications.
    const std::size_t reps = bench::Env::replications();
    std::vector<double> rand_recall(25, 0.0);
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const auto perm = rng.permutation(n);
      std::vector<double> random_scores(n);
      for (std::size_t i = 0; i < n; ++i) {
        random_scores[i] = static_cast<double>(perm[i]);
      }
      for (std::size_t k = 1; k <= 25; ++k) {
        rand_recall[k - 1] +=
            ml::recall_score_percent(k, random_scores, meas);
      }
    }
    const std::size_t base = obj == Objective::kExecTime ? 0 : 2;
    for (std::size_t k = 1; k <= 25; ++k) {
      columns[base].push_back(ml::recall_score_percent(k, scores, meas));
      columns[base + 1].push_back(rand_recall[k - 1] /
                                  static_cast<double>(reps));
    }
  }

  for (std::size_t k = 1; k <= 25; k += 2) {
    table.add_row({std::to_string(k), bench::fmt(columns[0][k - 1], 0),
                   bench::fmt(columns[1][k - 1], 1),
                   bench::fmt(columns[2][k - 1], 0),
                   bench::fmt(columns[3][k - 1], 1)});
  }
  for (std::size_t k = 1; k <= 25; ++k) {
    csv.add_row({std::to_string(k), bench::fmt(columns[0][k - 1], 2),
                 bench::fmt(columns[1][k - 1], 2),
                 bench::fmt(columns[2][k - 1], 2),
                 bench::fmt(columns[3][k - 1], 2)});
  }
  std::cout << table;
  csv.commit();
  std::cout << "\nPaper shape: combination functions reach >30% recall for "
               "top 2-25, far above random\n(which is ~n/500). Series "
               "written to fig4_combination_recall.csv.\n";
  return 0;
}
