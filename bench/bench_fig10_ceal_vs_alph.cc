// Fig. 10: CEAL vs ALpH (black-box component combination, §4) with
// historical component measurements.
//   (a) execution time: LV and HS at 50 and 100 samples
//   (b) computer time: LV, HS, GP at 25 and 50 samples
#include <iostream>

#include "bench/common.h"
#include "core/csv.h"
#include "core/table.h"

int main() {
  using namespace ceal;
  using tuner::Objective;
  bench::banner("CEAL vs ALpH with historical measurements", "Fig. 10");
  const auto& env = bench::Env::instance();

  Table table(
      {"workflow", "objective", "samples", "CEAL", "ALpH", "CEAL wins"});
  CsvWriter csv("fig10_ceal_vs_alph.csv",
                {"workflow", "objective", "samples", "algorithm",
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
    const auto ceal_s = bench::run_cell(env, "CEAL", w, cell.obj,
                                        cell.budget, /*history=*/true);
    const auto alph_s = bench::run_cell(env, "ALpH", w, cell.obj,
                                        cell.budget, /*history=*/true);
    table.add_row({cell.wf, tuner::objective_name(cell.obj),
                   std::to_string(cell.budget),
                   bench::fmt(ceal_s.mean_norm_perf),
                   bench::fmt(alph_s.mean_norm_perf),
                   ceal_s.mean_norm_perf <= alph_s.mean_norm_perf ? "yes"
                                                                  : "no"});
    for (const auto* s : {&ceal_s, &alph_s}) {
      csv.add_row({cell.wf, tuner::objective_name(cell.obj),
                   std::to_string(cell.budget), s->algorithm,
                   bench::fmt(s->mean_norm_perf)});
    }
    std::cout << "." << std::flush;
  }
  std::cout << "\n\n" << table;
  csv.commit();
  std::cout << "\nPaper shape: CEAL superior to ALpH in all cases; at 25 "
               "samples the paper reports computer time\n14.7% (LV), 32.6% "
               "(HS), 5.6% (GP) below ALpH's.\n";
  return 0;
}
