// Fig. 12: practicality with historical measurements — least number of
// uses for CEAL vs ALpH:
//   (a) execution time: LV @ 50 and HS @ 100 samples
//   (b) computer time: LV and HS @ 25 and 50 samples
#include <iostream>

#include "bench/common.h"
#include "core/csv.h"
#include "core/table.h"

int main() {
  using namespace ceal;
  using tuner::Objective;
  bench::banner("Practicality with histories (least number of uses)",
                "Fig. 12");
  const auto& env = bench::Env::instance();

  Table table({"workflow", "objective", "samples", "CEAL", "ALpH"});
  CsvWriter csv("fig12_practicality_hist.csv",
                {"workflow", "objective", "samples", "algorithm",
                 "least_uses", "frac_beat_expert"});

  struct Cell {
    const char* wf;
    Objective obj;
    std::size_t budget;
  };
  std::vector<Cell> cells{{"LV", Objective::kExecTime, 50},
                          {"HS", Objective::kExecTime, 100}};
  for (const char* wf : {"LV", "HS"}) {
    for (const std::size_t m : {25, 50}) {
      cells.push_back({wf, Objective::kComputerTime, m});
    }
  }

  for (const auto& cell : cells) {
    const std::size_t w = env.index_of(cell.wf);
    std::vector<std::string> row{cell.wf, tuner::objective_name(cell.obj),
                                 std::to_string(cell.budget)};
    for (const char* algo : {"CEAL", "ALpH"}) {
      const auto s = bench::run_cell(env, algo, w, cell.obj, cell.budget,
                                     /*history=*/true);
      row.push_back(bench::fmt(s.least_uses, 0));
      csv.add_row({cell.wf, tuner::objective_name(cell.obj),
                   std::to_string(cell.budget), algo,
                   bench::fmt(s.least_uses, 1),
                   bench::fmt(s.frac_beat_expert, 3)});
      std::cout << "." << std::flush;
    }
    table.add_row(row);
  }
  std::cout << "\n\n" << table;
  csv.commit();
  std::cout << "\nPaper shape: CEAL recoups its cost in fewer uses than "
               "ALpH (paper: 164 runs for LV exec @50,\n160 for LV comp "
               "@25).\n";
  return 0;
}
