// Pool-scale benchmark: candidate scoring + top-k selection as C_pool
// grows from 2k to 2M configurations (google-benchmark).
//
// Each iteration featurizes the pool into one joint matrix through
// tuner/pool_scorer.h, scores it, and selects the best 64 with the
// bounded heap (core/stats.h). Two models score it: a fitted
// surrogate (BM_PoolScoreCached) and the low-fidelity combination model
// M_L over fitted component models (BM_PoolLowFidelityCached).
// BM_PoolLowFidelityShared prices what a history session pays instead
// once another session has scored the same pool with the same history
// fit: a lookup in ComponentModelSet::predict_pool's memo (comparing the
// whole joint matrix) and the fold, with the pool featurized once
// outside the loop. Reported counters:
//   items_per_second — configurations scored per second of wall time
//                      (UseRealTime: scoring runs on the whole worker
//                      pool, not on the benchmark thread alone)
//   peak_rss_mb      — process high-water RSS (bench/common.h)
//   recall_at_64     — % overlap of predicted vs true (noise-free) top-64
//
// CEAL_POOL_SCALE_MAX caps the largest pool size. CI runs with 16384
// (tools/run_tier1.sh); the full 2M sweep is a workstation run. Console
// output mirrors into BENCH_pool_scale.json (docs/PERFORMANCE.md).
#include <benchmark/benchmark.h>

#include "bench/common.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <memory>
#include <numeric>
#include <span>
#include <vector>

#include "config/config_space.h"
#include "core/rng.h"
#include "ml/gbt.h"
#include "sim/workloads.h"
#include "tuner/low_fidelity.h"
#include "tuner/measured_pool.h"
#include "tuner/pool_scorer.h"
#include "tuner/surrogate.h"
#include "tuner/tuning_util.h"

namespace {

using namespace ceal;

constexpr std::size_t kTopK = 64;
constexpr std::size_t kTrainConfigs = 128;
constexpr std::size_t kMaxPool = 2'097'152;

const sim::Workload& lv() {
  static const sim::Workload wl = sim::make_lv();
  return wl;
}

/// Surrogate fitted once on a small measured sample with the quantized
/// trainer (prediction always runs through the compiled forest).
const tuner::Surrogate& surrogate() {
  static const tuner::Surrogate model = [] {
    const auto& wf = lv().workflow;
    const auto& space = wf.joint_space();
    Rng sample_rng(bench::kPoolSeed);
    const auto train = space.sample_valid(sample_rng, kTrainConfigs);
    std::vector<double> targets;
    targets.reserve(train.size());
    for (const auto& c : train) targets.push_back(wf.expected(c).exec_s);
    auto params = ml::GradientBoostedTrees::surrogate_defaults();
    params.tree.method = ml::TreeMethod::kQuantized;
    tuner::Surrogate fitted(params);
    Rng fit_rng(bench::kEvalSeed);
    fitted.fit(space, train, targets, fit_rng);
    return fitted;
  }();
  return model;
}

/// M_L for LV execution time: one component model per app, fitted on
/// kTrainConfigs solo runs each with the quantized trainer. `shared`
/// fits through ComponentModelSet::fit_shared, as a history session
/// does, so the model's pool predictions are memoized.
tuner::LowFidelityModel make_low_fidelity(bool shared) {
  const auto& wf = lv().workflow;
  const auto samples =
      tuner::measure_components(wf, kTrainConfigs, bench::kPoolSeed);
  std::vector<std::vector<std::size_t>> all(samples.size());
  for (std::size_t j = 0; j < samples.size(); ++j) {
    all[j].resize(samples[j].size());
    std::iota(all[j].begin(), all[j].end(), std::size_t{0});
  }
  auto params = ml::GradientBoostedTrees::surrogate_defaults();
  params.tree.method = ml::TreeMethod::kQuantized;
  Rng fit_rng(bench::kEvalSeed);
  auto components =
      shared ? tuner::ComponentModelSet::fit_shared(
                   wf, tuner::Objective::kExecTime, samples, all, fit_rng,
                   params)
             : std::make_shared<const tuner::ComponentModelSet>(
                   wf, tuner::Objective::kExecTime, samples, all, fit_rng,
                   params);
  return tuner::LowFidelityModel(wf, tuner::Objective::kExecTime,
                                 std::move(components));
}

const tuner::LowFidelityModel& low_fidelity() {
  static const tuner::LowFidelityModel model = make_low_fidelity(false);
  return model;
}

const tuner::LowFidelityModel& shared_low_fidelity() {
  static const tuner::LowFidelityModel model = make_low_fidelity(true);
  return model;
}

struct PoolCase {
  std::vector<config::Configuration> configs;
  std::vector<std::size_t> truth_topk;  // sorted ascending by index
};

/// Pool of `n` configurations plus the true (noise-free) top-64. Only
/// one size is held at a time so earlier sweep points do not inflate
/// the peak-RSS counter of later ones.
const PoolCase& pool_case(std::size_t n) {
  static std::size_t current = 0;
  static PoolCase pc;
  if (current != n) {
    pc = PoolCase{};
    const auto& wf = lv().workflow;
    Rng rng(bench::kPoolSeed + n);
    pc.configs = wf.joint_space().sample_valid(rng, n);
    std::vector<double> truth(n);
    for (std::size_t i = 0; i < n; ++i) {
      truth[i] = wf.expected(pc.configs[i]).exec_s;
    }
    pc.truth_topk = tuner::smallest_k(truth, kTopK);
    std::sort(pc.truth_topk.begin(), pc.truth_topk.end());
    current = n;
  }
  return pc;
}

double recall_percent(std::vector<std::size_t> picked,
                      const std::vector<std::size_t>& truth) {
  std::sort(picked.begin(), picked.end());
  std::vector<std::size_t> common;
  std::set_intersection(picked.begin(), picked.end(), truth.begin(),
                        truth.end(), std::back_inserter(common));
  return 100.0 * static_cast<double>(common.size()) /
         static_cast<double>(truth.size());
}

/// Scores of every configuration of a pool.
using ScorePool = std::function<std::vector<double>(
    std::span<const config::Configuration>)>;

void run_scoring(benchmark::State& state, const ScorePool& score_pool) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto& pc = pool_case(n);
  double recall = 0.0;
  for (auto _ : state) {
    const auto scores = score_pool(pc.configs);
    auto picked = tuner::smallest_k(scores, kTopK);
    benchmark::DoNotOptimize(picked);
    recall = recall_percent(std::move(picked), pc.truth_topk);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
  state.counters["recall_at_64"] = recall;
  state.counters["peak_rss_mb"] = bench::peak_rss_mb();
}

void BM_PoolScoreCached(benchmark::State& state) {
  const auto& model = surrogate();
  run_scoring(state, [&](std::span<const config::Configuration> configs) {
    const tuner::PoolScorer scorer(lv().workflow.joint_space(), configs);
    return scorer.surrogate_scores(model);
  });
}

void BM_PoolLowFidelityCached(benchmark::State& state) {
  const auto& model = low_fidelity();
  run_scoring(state, [&](std::span<const config::Configuration> configs) {
    const tuner::PoolScorer scorer(lv().workflow.joint_space(), configs);
    return scorer.low_fidelity_scores(model);
  });
}

void BM_PoolLowFidelityShared(benchmark::State& state) {
  const auto& model = shared_low_fidelity();
  const auto& pc = pool_case(static_cast<std::size_t>(state.range(0)));
  const tuner::PoolScorer scorer(lv().workflow.joint_space(), pc.configs);
  benchmark::DoNotOptimize(scorer.low_fidelity_scores(model));  // the miss
  run_scoring(state, [&](std::span<const config::Configuration>) {
    return scorer.low_fidelity_scores(model);
  });
}

std::size_t pool_scale_cap() {
  if (const char* env = std::getenv("CEAL_POOL_SCALE_MAX")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 2048) return static_cast<std::size_t>(v);
  }
  return kMaxPool;
}

void pool_args(benchmark::internal::Benchmark* b) {
  const std::size_t cap = pool_scale_cap();
  for (const std::size_t n : {2048ul, 16384ul, 131072ul, 1048576ul,
                              2097152ul}) {
    if (n <= cap) b->Arg(static_cast<std::int64_t>(n));
  }
  b->Unit(benchmark::kMillisecond);
}

/// The shared path at a session-sized pool and at a large one, each a
/// size BM_PoolLowFidelityCached also runs.
void shared_args(benchmark::internal::Benchmark* b) {
  for (const std::size_t n : {2048ul, 131072ul}) {
    if (n <= pool_scale_cap()) b->Arg(static_cast<std::int64_t>(n));
  }
  b->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_PoolScoreCached)->Apply(pool_args)->UseRealTime();
BENCHMARK(BM_PoolLowFidelityCached)->Apply(pool_args)->UseRealTime();
BENCHMARK(BM_PoolLowFidelityShared)->Apply(shared_args)->UseRealTime();

}  // namespace

// Custom main (shared helper): mirror the console output into
// BENCH_pool_scale.json with the common "ceal" metadata header by
// default. Explicit --benchmark_out flags still win.
int main(int argc, char** argv) {
  auto bench_args =
      ceal::bench::make_bench_args(argc, argv, "BENCH_pool_scale.json");
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
