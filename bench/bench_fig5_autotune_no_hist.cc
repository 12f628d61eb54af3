// Fig. 5: normalised execution/computer time of the best configuration
// found by RS, GEIST, AL, and CEAL without historical measurements.
//   (a) LV: exec @ {50,100}, comp @ {25,50}
//   (b) HS: exec @ {50,100}, comp @ {25,50}
//   (c) GP: comp @ {25,50}
// Values are normalised by the best configuration in the test pool
// (dashed line "1" in the paper plots).
#include <iostream>

#include "bench/common.h"
#include "core/csv.h"
#include "core/table.h"

int main() {
  using namespace ceal;
  using tuner::Objective;
  bench::banner(
      "Best configuration auto-tuned without historical measurements",
      "Fig. 5");
  const auto& env = bench::Env::instance();

  struct Panel {
    const char* wf;
    Objective obj;
    std::size_t budgets[2];
  };
  const Panel panels[] = {
      {"LV", Objective::kExecTime, {50, 100}},
      {"LV", Objective::kComputerTime, {25, 50}},
      {"HS", Objective::kExecTime, {50, 100}},
      {"HS", Objective::kComputerTime, {25, 50}},
      {"GP", Objective::kComputerTime, {25, 50}},
  };
  const char* algos[] = {"RS", "GEIST", "AL", "CEAL"};

  Table table({"workflow", "objective", "samples", "RS", "GEIST", "AL",
               "CEAL"});
  CsvWriter csv("fig5_autotune_no_hist.csv",
                {"workflow", "objective", "samples", "algorithm",
                 "norm_perf"});
  for (const auto& panel : panels) {
    const std::size_t w = env.index_of(panel.wf);
    for (const std::size_t budget : panel.budgets) {
      std::vector<std::string> row{
          panel.wf, tuner::objective_name(panel.obj),
          std::to_string(budget)};
      for (const char* algo : algos) {
        const auto s = bench::run_cell(env, algo, w, panel.obj, budget,
                                       /*history=*/false);
        row.push_back(bench::fmt(s.mean_norm_perf));
        csv.add_row({panel.wf, tuner::objective_name(panel.obj),
                     std::to_string(budget), algo,
                     bench::fmt(s.mean_norm_perf)});
      }
      table.add_row(row);
      std::cout << "." << std::flush;
    }
  }
  std::cout << "\n\n" << table;
  csv.commit();
  std::cout << "\nPaper shape: CEAL lowest (or tied) in every cell; RS "
               "worst; AL between. Paper examples:\nCEAL improves 15-72% "
               "over RS and 10-60% over GEIST. Series in "
               "fig5_autotune_no_hist.csv.\n";
  return 0;
}
