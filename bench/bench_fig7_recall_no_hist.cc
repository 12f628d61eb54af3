// Fig. 7: robustness (recall scores for top 1..9) of RS, GEIST, AL, CEAL
// without historical measurements:
//   (a) execution time of LV and HS @ 100 samples
//   (b) computer time of LV @ 50 and GP @ 50 samples
#include <iostream>

#include "bench/common.h"
#include "core/csv.h"
#include "core/table.h"

int main() {
  using namespace ceal;
  using tuner::Objective;
  bench::banner("Robustness of auto-tuning without histories (recall)",
                "Fig. 7");
  const auto& env = bench::Env::instance();

  struct Cell {
    const char* wf;
    Objective obj;
    std::size_t budget;
  };
  const Cell cells[] = {
      {"LV", Objective::kExecTime, 100},
      {"HS", Objective::kExecTime, 100},
      {"LV", Objective::kComputerTime, 50},
      {"GP", Objective::kComputerTime, 50},
  };
  const char* algos[] = {"RS", "GEIST", "AL", "CEAL"};

  CsvWriter csv("fig7_recall_no_hist.csv",
                {"workflow", "objective", "samples", "algorithm", "top_n",
                 "recall_pct"});
  for (const auto& cell : cells) {
    const std::size_t w = env.index_of(cell.wf);
    std::cout << "\n" << cell.wf << ": "
              << tuner::objective_name(cell.obj) << " ("
              << cell.budget << " spls)\n";
    Table table({"algorithm", "top1", "top2", "top3", "top4", "top5",
                 "top6", "top7", "top8", "top9"});
    for (const char* algo : algos) {
      const auto s = bench::run_cell(env, algo, w, cell.obj, cell.budget,
                                     /*history=*/false);
      std::vector<std::string> row{algo};
      for (std::size_t n = 1; n <= 9; ++n) {
        row.push_back(bench::fmt(s.mean_recall[n - 1], 0));
        csv.add_row({cell.wf, tuner::objective_name(cell.obj),
                     std::to_string(cell.budget), algo, std::to_string(n),
                     bench::fmt(s.mean_recall[n - 1], 2)});
      }
      table.add_row(row);
    }
    std::cout << table;
  }
  csv.commit();
  std::cout << "\nPaper shape: CEAL's recall dominates at every depth; "
               "top-1 recall for LV exec @100 is 63% for CEAL vs\n2% (RS), "
               "15% (GEIST), 39% (AL). Series in fig7_recall_no_hist.csv.\n";
  return 0;
}
