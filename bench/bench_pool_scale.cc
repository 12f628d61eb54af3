// Pool-scale benchmark: candidate scoring + top-k selection as C_pool
// grows from 2k to 2M configurations (google-benchmark).
//
// Each iteration streams the pool through a fitted surrogate in
// fixed-size blocks (tuner/pool_scorer.h, streaming mode) and selects
// the best 64 with the bounded heap (tuner/tuning_util.h). Memory stays
// flat as the pool grows: no full-pool feature matrix is ever
// materialised, only the 8-byte/row score vector. Reported counters:
//   items_per_second — configurations scored per second
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
#include <vector>

#include "config/config_space.h"
#include "core/rng.h"
#include "ml/gbt.h"
#include "sim/workloads.h"
#include "tuner/pool_scorer.h"
#include "tuner/surrogate.h"
#include "tuner/tuning_util.h"

namespace {

using namespace ceal;

constexpr std::size_t kTopK = 64;
constexpr std::size_t kChunkRows = 8192;
constexpr std::size_t kTrainConfigs = 128;
constexpr std::size_t kMaxPool = 2'097'152;
// Cached mode materialises the full pool feature matrix, so its sweep
// stops where that matrix stays cheap; past this point only the
// streaming path is benchmarked (and usable).
constexpr std::size_t kMaxCachedPool = 131'072;

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

void run_scoring(benchmark::State& state, std::size_t chunk_rows) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto& pc = pool_case(n);
  const auto& model = surrogate();
  const auto& space = lv().workflow.joint_space();
  double recall = 0.0;
  for (auto _ : state) {
    const tuner::PoolScorer scorer(space, pc.configs, chunk_rows, nullptr);
    const auto scores = scorer.surrogate_scores(model);
    auto picked = tuner::smallest_k(scores, kTopK);
    benchmark::DoNotOptimize(picked);
    recall = recall_percent(std::move(picked), pc.truth_topk);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
  state.counters["recall_at_64"] = recall;
  state.counters["peak_rss_mb"] = bench::peak_rss_mb();
}

void BM_PoolScoreStreaming(benchmark::State& state) {
  run_scoring(state, kChunkRows);
}

void BM_PoolScoreCached(benchmark::State& state) {
  run_scoring(state, /*chunk_rows=*/0);
}

std::size_t pool_scale_cap() {
  if (const char* env = std::getenv("CEAL_POOL_SCALE_MAX")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 2048) return static_cast<std::size_t>(v);
  }
  return kMaxPool;
}

void streaming_args(benchmark::internal::Benchmark* b) {
  const std::size_t cap = pool_scale_cap();
  for (const std::size_t n : {2048ul, 16384ul, 131072ul, 1048576ul,
                              2097152ul}) {
    if (n <= cap) b->Arg(static_cast<std::int64_t>(n));
  }
  b->Unit(benchmark::kMillisecond);
}

void cached_args(benchmark::internal::Benchmark* b) {
  const std::size_t cap = std::min(pool_scale_cap(), kMaxCachedPool);
  for (const std::size_t n : {2048ul, 16384ul, 131072ul}) {
    if (n <= cap) b->Arg(static_cast<std::int64_t>(n));
  }
  b->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_PoolScoreStreaming)->Apply(streaming_args);
BENCHMARK(BM_PoolScoreCached)->Apply(cached_args);

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
