// Fig. 8: practicality of auto-tuning without histories — the least
// number of workflow uses needed to recoup the tuning cost (N = c / Δp,
// §7.2.3), for AL vs CEAL optimising computer time of LV and HS with 50
// training samples. (RS and GEIST do not beat the expert at this budget
// in the paper, so their practicality is unbounded.)
#include <iostream>

#include "bench/common.h"
#include "core/csv.h"
#include "core/table.h"

int main() {
  using namespace ceal;
  using tuner::Objective;
  bench::banner("Practicality without histories (least number of uses)",
                "Fig. 8");
  const auto& env = bench::Env::instance();

  Table table({"workflow", "algorithm", "least uses", "mean cost (ch)",
               "mean improvement (ch/run)", "beats expert"});
  CsvWriter csv("fig8_practicality.csv",
                {"workflow", "algorithm", "least_uses", "cost_comp_ch",
                 "improvement_ch", "frac_beat_expert"});
  for (const char* wf : {"LV", "HS"}) {
    const std::size_t w = env.index_of(wf);
    for (const char* algo : {"AL", "CEAL"}) {
      const auto s = bench::run_cell(env, algo, w,
                                     Objective::kComputerTime, 50,
                                     /*history=*/false);
      table.add_row({wf, algo, bench::fmt(s.least_uses, 0),
                     bench::fmt(s.mean_cost_comp_ch, 2),
                     bench::fmt(s.mean_improvement, 3),
                     bench::fmt(100.0 * s.frac_beat_expert, 0) + "%"});
      csv.add_row({wf, algo, bench::fmt(s.least_uses, 1),
                   bench::fmt(s.mean_cost_comp_ch, 3),
                   bench::fmt(s.mean_improvement, 4),
                   bench::fmt(s.frac_beat_expert, 3)});
      std::cout << "." << std::flush;
    }
  }
  std::cout << "\n\n" << table;
  csv.commit();
  std::cout << "\nPaper shape: CEAL needs fewer uses than AL to pay off "
               "(LV: 716 vs 782 in the paper) because its\ntraining "
               "samples are cheaper — the low-fidelity model steers it to "
               "fast configurations.\n";
  return 0;
}
