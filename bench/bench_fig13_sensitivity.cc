// Fig. 13: CEAL hyper-parameter sensitivity on LV computer time with 50
// training samples, reporting the actual computer time (core-hours) of
// the predicted best configuration:
//   (a) iterations I = 1..10, with and without histories
//   (b) random-sample fraction m0/m swept 5%..95%
//   (c) component-run fraction mR/m swept 5%..85% (no-history mode)
#include <iostream>

#include "bench/common.h"
#include "core/csv.h"
#include "core/table.h"
#include "tuner/ceal.h"
#include "tuner/evaluation.h"

namespace {

// Mean actual computer time (core-hours) of the recommendation.
double mean_comp_ch(const ceal::bench::Env& env, std::size_t w,
                    const ceal::tuner::CealParams& params, bool history) {
  using namespace ceal;
  const auto prob = env.problem(w, tuner::Objective::kComputerTime, history);
  const tuner::Ceal ceal_algo(params);
  const auto s = tuner::evaluate(prob, ceal_algo, 50,
                                 bench::Env::replications(),
                                 bench::kEvalSeed);
  const auto& truth = prob.pool->truth(prob.objective);
  const double best = truth[prob.pool->best_truth_index(prob.objective)];
  return s.mean_norm_perf * best;
}

}  // namespace

int main() {
  using namespace ceal;
  using tuner::CealParams;
  bench::banner("CEAL hyper-parameter sensitivity (LV computer time, 50 "
                "samples)",
                "Fig. 13");
  const auto& env = bench::Env::instance();
  const std::size_t lv = env.index_of("LV");
  CsvWriter csv("fig13_sensitivity.csv",
                {"panel", "setting", "history", "computer_time_ch"});

  // (a) iterations.
  {
    Table table({"I", "w/o histories (ch)", "w/ histories (ch)"});
    for (std::size_t iters = 1; iters <= 10; ++iters) {
      CealParams no_hist = CealParams::no_history();
      no_hist.iterations = iters;
      CealParams hist = CealParams::with_history();
      hist.iterations = iters;
      const double a = mean_comp_ch(env, lv, no_hist, false);
      const double b = mean_comp_ch(env, lv, hist, true);
      table.add_row({std::to_string(iters), bench::fmt(a, 3),
                     bench::fmt(b, 3)});
      csv.add_row({"iterations", std::to_string(iters), "no",
                   bench::fmt(a, 4)});
      csv.add_row({"iterations", std::to_string(iters), "yes",
                   bench::fmt(b, 4)});
      std::cout << "." << std::flush;
    }
    std::cout << "\n(a) iterations I\n" << table << "\n";
  }

  // (b) m0 fraction.
  {
    Table table({"m0/m (%)", "w/o histories (ch)", "w/ histories (ch)"});
    for (int pct = 5; pct <= 95; pct += 10) {
      CealParams no_hist = CealParams::no_history();
      no_hist.m0_fraction = pct / 100.0;
      CealParams hist = CealParams::with_history();
      hist.m0_fraction = pct / 100.0;
      // m0 + mR must stay under the budget in no-history mode.
      const bool feasible = no_hist.m0_fraction + no_hist.mR_fraction < 0.95;
      const double a =
          feasible ? mean_comp_ch(env, lv, no_hist, false) : 0.0;
      const double b = mean_comp_ch(env, lv, hist, true);
      table.add_row({std::to_string(pct),
                     feasible ? bench::fmt(a, 3) : "n/a",
                     bench::fmt(b, 3)});
      if (feasible) {
        csv.add_row({"m0", std::to_string(pct), "no", bench::fmt(a, 4)});
      }
      csv.add_row({"m0", std::to_string(pct), "yes", bench::fmt(b, 4)});
      std::cout << "." << std::flush;
    }
    std::cout << "\n(b) random-sample fraction m0/m\n" << table << "\n";
  }

  // (c) mR fraction (no-history mode only; with histories mR = 0).
  {
    Table table({"mR/m (%)", "w/o histories (ch)"});
    for (int pct = 5; pct <= 85; pct += 10) {
      CealParams params = CealParams::no_history();
      params.mR_fraction = pct / 100.0;
      const double a = mean_comp_ch(env, lv, params, false);
      table.add_row({std::to_string(pct), bench::fmt(a, 3)});
      csv.add_row({"mR", std::to_string(pct), "no", bench::fmt(a, 4)});
      std::cout << "." << std::flush;
    }
    std::cout << "\n(c) component-run fraction mR/m\n" << table;
  }
  csv.commit();
  std::cout << "\nPaper shape: converges by I ~ 8 without histories "
               "(faster with); flat over a wide m0 range;\nflat for mR in "
               "30-80%. Series in fig13_sensitivity.csv.\n";
  return 0;
}
