// Micro-benchmarks of the simulator and tuning substrate
// (google-benchmark): coupled-run evaluation, pool construction, and
// low-fidelity scoring throughput.
#include <benchmark/benchmark.h>

#include "bench/common.h"

#include <memory>

#include "core/rng.h"
#include "sim/workloads.h"
#include "tuner/low_fidelity.h"
#include "tuner/measured_pool.h"
#include "tuner/pool_features.h"

namespace {

using namespace ceal;

void BM_WorkflowExpected(benchmark::State& state) {
  const auto wl = sim::make_lv();
  Rng rng(1);
  const auto c = wl.workflow.joint_space().random_valid(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wl.workflow.expected(c));
  }
}
BENCHMARK(BM_WorkflowExpected);

void BM_WorkflowNoisyRun(benchmark::State& state) {
  const auto wl = sim::make_gp();  // four components, three edges
  Rng rng(2);
  const auto c = wl.workflow.joint_space().random_valid(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wl.workflow.run(c, rng));
  }
}
BENCHMARK(BM_WorkflowNoisyRun);

void BM_RandomValidConfig(benchmark::State& state) {
  const auto wl = sim::make_hs();  // tightest joint constraint
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wl.workflow.joint_space().random_valid(rng));
  }
}
BENCHMARK(BM_RandomValidConfig);

void BM_MeasurePool(benchmark::State& state) {
  const auto wl = sim::make_lv();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tuner::measure_pool(
        wl.workflow, static_cast<std::size_t>(state.range(0)), 7));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MeasurePool)->Arg(200)->Arg(2000);

void BM_LowFidelityScorePool(benchmark::State& state) {
  const auto wl = sim::make_lv();
  const auto pool = tuner::measure_pool(wl.workflow, 2000, 7);
  const auto comps = tuner::measure_components(wl.workflow, 500, 8);
  std::vector<std::vector<std::size_t>> all(comps.size());
  for (std::size_t j = 0; j < comps.size(); ++j) {
    all[j].resize(comps[j].size());
    for (std::size_t i = 0; i < comps[j].size(); ++i) all[j][i] = i;
  }
  Rng rng(9);
  auto cm = std::make_shared<const tuner::ComponentModelSet>(
      wl.workflow, tuner::Objective::kExecTime, comps, all, rng);
  const tuner::LowFidelityModel lf(wl.workflow, tuner::Objective::kExecTime,
                                   cm);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lf.score_many(
        tuner::featurize_joint(wl.workflow.joint_space(), pool.configs)));
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_LowFidelityScorePool);

}  // namespace

// Custom main (shared helper): mirror the console output into
// BENCH_micro_sim.json with the common "ceal" metadata header by default.
// Explicit --benchmark_out flags still win.
int main(int argc, char** argv) {
  auto bench_args =
      ceal::bench::make_bench_args(argc, argv, "BENCH_micro_sim.json");
  benchmark::Initialize(&bench_args.argc, bench_args.argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_args.argc,
                                             bench_args.argv.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!bench_args.json_path.empty()) {
    ceal::bench::annotate_bench_json(bench_args.json_path);
  }
  return 0;
}
