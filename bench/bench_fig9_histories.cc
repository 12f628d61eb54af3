// Fig. 9: effect of historical component measurements on CEAL.
//   (a) execution time of the predicted best configuration: LV and HS at
//       50 and 100 training samples
//   (b) computer time: LV, HS, GP at 25 and 50 training samples
// "With histories" trains component models on the 500-sample archives for
// free; "without" charges m_R runs against the budget.
#include <iostream>

#include "bench/common.h"
#include "core/csv.h"
#include "core/table.h"

int main() {
  using namespace ceal;
  using tuner::Objective;
  bench::banner("Effect of historical measurements on CEAL", "Fig. 9");
  const auto& env = bench::Env::instance();

  Table table({"workflow", "objective", "samples", "CEAL w/o histories",
               "CEAL w/ histories"});
  CsvWriter csv("fig9_histories.csv",
                {"workflow", "objective", "samples", "history",
                 "norm_perf"});

  struct Cell {
    const char* wf;
    Objective obj;
    std::size_t budget;
  };
  std::vector<Cell> cells;
  for (const char* wf : {"LV", "HS"}) {
    for (const std::size_t m : {50, 100}) {
      cells.push_back({wf, Objective::kExecTime, m});
    }
  }
  for (const char* wf : {"LV", "HS", "GP"}) {
    for (const std::size_t m : {25, 50}) {
      cells.push_back({wf, Objective::kComputerTime, m});
    }
  }

  for (const auto& cell : cells) {
    const std::size_t w = env.index_of(cell.wf);
    const auto without = bench::run_cell(env, "CEAL", w, cell.obj,
                                         cell.budget, /*history=*/false);
    const auto with = bench::run_cell(env, "CEAL", w, cell.obj,
                                      cell.budget, /*history=*/true);
    table.add_row({cell.wf, tuner::objective_name(cell.obj),
                   std::to_string(cell.budget),
                   bench::fmt(without.mean_norm_perf),
                   bench::fmt(with.mean_norm_perf)});
    csv.add_row({cell.wf, tuner::objective_name(cell.obj),
                 std::to_string(cell.budget), "no",
                 bench::fmt(without.mean_norm_perf)});
    csv.add_row({cell.wf, tuner::objective_name(cell.obj),
                 std::to_string(cell.budget), "yes",
                 bench::fmt(with.mean_norm_perf)});
    std::cout << "." << std::flush;
  }
  std::cout << "\n\n" << table;
  csv.commit();
  std::cout << "\nPaper shape: histories help in most cells (paper: at 25 "
               "samples they cut computer time by 7.8%\n(LV), 38.9% (HS), "
               "6.6% (GP)). Series in fig9_histories.csv.\n";
  return 0;
}
