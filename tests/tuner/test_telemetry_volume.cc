// How much telemetry one session records, counted. The overhead gate in
// bench/bench_micro_telemetry.cc times this very session (CEAL with
// histories on LV, budget 25, pool 400/21, 120 component samples per
// component, seed 7) against the disabled path, but a timing cannot see
// telemetry's cost double once that cost is a few percent of a session.
// The counts below can: a new per-round span or an event emitted twice
// changes them. They are deterministic, so they must not move with the
// worker count either. A change that adds or removes telemetry on this
// path re-pins them on purpose and says what moved.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "core/rng.h"
#include "core/telemetry.h"
#include "sim/workloads.h"
#include "tuner/ceal.h"
#include "tuner/measured_pool.h"

namespace ceal::tuner {
namespace {

struct Volume {
  std::uint64_t span_records = 0;  // sum of the timing.*_s counts
  std::size_t events = 0;
  std::set<std::string> counter_names;
};

Volume gated_session_volume(std::size_t threads) {
  const sim::Workload wl = sim::make_lv();
  const MeasuredPool pool = measure_pool(wl.workflow, 400, 21);
  const std::vector<ComponentSamples> comps =
      measure_components(wl.workflow, 120, 22);
  telemetry::BufferTraceSink sink;
  telemetry::Telemetry tel(&sink);
  TuningProblem problem{&wl, Objective::kExecTime, &pool, &comps, true, {}};
  problem.telemetry = &tel;
  ceal::set_global_thread_pool_threads(threads);
  ceal::Rng rng(7);
  Ceal(CealParams::with_history()).tune(problem, 25, rng);
  ceal::set_global_thread_pool_threads(0);

  Volume v;
  for (const auto& [name, stats] : tel.histograms()) {
    if (name.starts_with("timing.") && name.ends_with("_s")) {
      v.span_records += stats.count;
    }
  }
  v.events = sink.size();
  for (const auto& [name, value] : tel.counters()) v.counter_names.insert(name);
  return v;
}

TEST(GatedSessionVolume, CountsAreExactAtOneAndFourWorkers) {
  const std::set<std::string> counter_names{
      "ceal.iterations",
      "ceal.switched",
      "ceal.topups",
      "gbt.fits",
      "gbt.predict.batches",
      "gbt.predict.rows",
      "gbt.rounds",
      "measure.ok",
      "measure.requests",
      "surrogate.fits",
      "tree.fits",
      "tree.leaves",
      "tree.nodes",
      "tree.sort_memo.hits",
      "tree.sort_memo.misses",
      "tree.split_search.features",
      "tree.split_search.nodes",
      "tune.sessions",
  };
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(::testing::Message() << threads << " workers");
    const Volume v = gated_session_volume(threads);
    EXPECT_EQ(v.span_records, 37u);
    EXPECT_EQ(v.events, 107u);
    EXPECT_EQ(v.counter_names, counter_names);
  }
}

}  // namespace
}  // namespace ceal::tuner
