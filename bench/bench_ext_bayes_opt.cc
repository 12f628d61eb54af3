// Future-work extension (§9): Bayesian optimisation as the black-box
// technique. Compares plain BO (bootstrap-ensemble LCB), BO-CEAL (BO
// bootstrapped by the combined component models), AL, and CEAL on LV for
// both objectives with historical component measurements.
#include <iostream>

#include "bench/common.h"
#include "core/csv.h"
#include "core/table.h"
#include "tuner/active_learning.h"
#include "tuner/bayes_opt.h"
#include "tuner/ceal.h"
#include "tuner/evaluation.h"

int main() {
  using namespace ceal;
  using tuner::Objective;
  bench::banner("Extension: Bayesian optimisation in the bootstrapping "
                "method",
                "§9 future work");
  const auto& env = bench::Env::instance();
  const std::size_t lv = env.index_of("LV");

  tuner::ActiveLearning al;
  tuner::Ceal ceal_algo;
  tuner::BayesOpt bo;
  tuner::BayesOptParams boceal_params;
  boceal_params.bootstrap_with_low_fidelity = true;
  tuner::BayesOpt bo_ceal(boceal_params);

  Table table({"objective", "samples", "AL", "BO", "BO-CEAL", "CEAL"});
  CsvWriter csv("ext_bayes_opt.csv",
                {"objective", "samples", "algorithm", "norm_perf",
                 "recall_top1"});
  for (const auto [obj, budget] :
       {std::pair{Objective::kExecTime, std::size_t{50}},
        std::pair{Objective::kComputerTime, std::size_t{25}}}) {
    const auto prob = env.problem(lv, obj, /*history=*/true);
    std::vector<std::string> row{tuner::objective_name(obj),
                                 std::to_string(budget)};
    for (const tuner::AutoTuner* algo :
         {static_cast<const tuner::AutoTuner*>(&al),
          static_cast<const tuner::AutoTuner*>(&bo),
          static_cast<const tuner::AutoTuner*>(&bo_ceal),
          static_cast<const tuner::AutoTuner*>(&ceal_algo)}) {
      const auto s = tuner::evaluate(prob, *algo, budget,
                                     bench::Env::replications(),
                                     bench::kEvalSeed);
      row.push_back(bench::fmt(s.mean_norm_perf));
      csv.add_row({tuner::objective_name(obj), std::to_string(budget),
                   s.algorithm, bench::fmt(s.mean_norm_perf),
                   bench::fmt(s.mean_recall[0], 1)});
      std::cout << "." << std::flush;
    }
    table.add_row(row);
  }
  std::cout << "\n\n" << table;
  csv.commit();
  std::cout << "\nExpected shape: bootstrapping helps BO the same way it "
               "helps AL — BO-CEAL tracks CEAL and beats\nplain BO, "
               "confirming the method is black-box-technique agnostic "
               "(§3).\n";
  return 0;
}
