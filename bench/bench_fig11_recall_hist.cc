// Fig. 11: robustness (recall at top 1..9) of CEAL vs ALpH with
// historical component measurements:
//   (a) execution time of LV and HS @ 50 samples
//   (b) computer time of LV @ 25 and GP @ 25 samples
#include <iostream>

#include "bench/common.h"
#include "core/csv.h"
#include "core/table.h"

int main() {
  using namespace ceal;
  using tuner::Objective;
  bench::banner("Robustness with histories: CEAL vs ALpH (recall)",
                "Fig. 11");
  const auto& env = bench::Env::instance();

  struct Cell {
    const char* wf;
    Objective obj;
    std::size_t budget;
  };
  const Cell cells[] = {
      {"LV", Objective::kExecTime, 50},
      {"HS", Objective::kExecTime, 50},
      {"LV", Objective::kComputerTime, 25},
      {"GP", Objective::kComputerTime, 25},
  };

  CsvWriter csv("fig11_recall_hist.csv",
                {"workflow", "objective", "samples", "algorithm", "top_n",
                 "recall_pct"});
  for (const auto& cell : cells) {
    const std::size_t w = env.index_of(cell.wf);
    std::cout << "\n" << cell.wf << ": "
              << tuner::objective_name(cell.obj) << " (" << cell.budget
              << " spls)\n";
    Table table({"algorithm", "top1", "top2", "top3", "top4", "top5",
                 "top6", "top7", "top8", "top9"});
    for (const char* algo : {"CEAL", "ALpH"}) {
      const auto s = bench::run_cell(env, algo, w, cell.obj, cell.budget,
                                     /*history=*/true);
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
  std::cout << "\nPaper shape: CEAL always more robust than ALpH; for GP "
               "computer time @25 samples the paper's CEAL\nscores 100% at "
               "top-1/2/3. Series in fig11_recall_hist.csv.\n";
  return 0;
}
