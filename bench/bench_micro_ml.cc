// Micro-benchmarks of the ML substrate (google-benchmark): tree and
// ensemble training/prediction at surrogate-realistic sizes.
//
// Besides the console table, the run writes machine-readable results to
// BENCH_micro_ml.json in the working directory (see docs/PERFORMANCE.md).
#include <benchmark/benchmark.h>

#include "bench/common.h"

#include <string>
#include <string_view>
#include <vector>

#include "core/rng.h"
#include "ml/compiled_forest.h"
#include "ml/gbt.h"
#include "ml/knn.h"
#include "ml/random_forest.h"

namespace {

using namespace ceal;

ml::Dataset synth(std::size_t n, std::size_t d, Rng& rng) {
  ml::Dataset data(d);
  std::vector<double> x(d);
  for (std::size_t i = 0; i < n; ++i) {
    double y = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      x[j] = rng.uniform(0.0, 100.0);
      y += (j + 1) * x[j];
    }
    data.add(x, y + rng.normal(0.0, 5.0));
  }
  return data;
}

/// The feature rows of `data` as a target-less matrix, the batch
/// predictor's input.
ml::FeatureMatrix rows_of(const ml::Dataset& data) {
  ml::FeatureMatrix rows(data.n_features(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) rows.set_row(i, data.row(i));
  return rows;
}

void BM_GbtFit(benchmark::State& state) {
  Rng rng(1);
  const auto data = synth(static_cast<std::size_t>(state.range(0)), 7, rng);
  for (auto _ : state) {
    ml::GradientBoostedTrees model(
        ml::GradientBoostedTrees::surrogate_defaults());
    Rng fit_rng(2);
    model.fit(data, fit_rng);
    benchmark::DoNotOptimize(model);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GbtFit)->Arg(25)->Arg(50)->Arg(100)->Arg(500);

void BM_GbtPredict(benchmark::State& state) {
  Rng rng(3);
  const auto data = synth(100, 7, rng);
  ml::GradientBoostedTrees model(
      ml::GradientBoostedTrees::surrogate_defaults());
  model.fit(data, rng);
  const std::vector<double> x(7, 50.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(x));
  }
}
BENCHMARK(BM_GbtPredict);

void BM_GbtPredictPool(benchmark::State& state) {
  // The per-iteration cost of scoring a 2000-entry sample pool.
  Rng rng(4);
  const auto train = synth(50, 7, rng);
  const auto pool = rows_of(synth(2000, 7, rng));
  ml::GradientBoostedTrees model(
      ml::GradientBoostedTrees::surrogate_defaults());
  model.fit(train, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict_matrix(pool));
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_GbtPredictPool);

/// Like synth, but every feature takes one of 8 integer levels: the
/// tie-heavy shape of component configurations, where the exact
/// trainer's per-node sorts dominate.
ml::Dataset synth_discrete(std::size_t n, std::size_t d, Rng& rng) {
  ml::Dataset data(d);
  std::vector<double> x(d);
  for (std::size_t i = 0; i < n; ++i) {
    double y = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      x[j] = static_cast<double>(rng.uniform_int(1, 8));
      y += 100.0 / ((j + 1) * x[j]);
    }
    data.add(x, y + rng.normal(0.0, 0.5));
  }
  return data;
}

// ---------------------------------------------------------------------
// Exact vs quantized trainer, at the workload from docs/PERFORMANCE.md:
// n = 512 rows, 150 boosting rounds, depth-5 trees. state.range(0)
// selects the arm so all share one body: 0 exact and 1 quantized on
// all-distinct features, 2 exact on discrete (tie-heavy) features.

ml::TreeMethod method_arg(std::int64_t arg) {
  return arg == 1 ? ml::TreeMethod::kQuantized : ml::TreeMethod::kExact;
}

const char* method_label(std::int64_t arg) {
  static constexpr const char* kLabels[] = {"exact", "quantized",
                                            "exact_ties"};
  return kLabels[arg];
}

ml::GbtParams deep_fit_params(ml::TreeMethod method) {
  ml::GbtParams p;
  p.n_rounds = 150;
  p.learning_rate = 0.1;
  p.tree.max_depth = 5;
  p.tree.method = method;
  return p;
}

void BM_GbtFit512(benchmark::State& state) {
  Rng rng(8);
  const auto data = state.range(0) == 2 ? synth_discrete(512, 7, rng)
                                        : synth(512, 7, rng);
  const auto params = deep_fit_params(method_arg(state.range(0)));
  for (auto _ : state) {
    ml::GradientBoostedTrees model(params);
    Rng fit_rng(9);
    model.fit(data, fit_rng);
    benchmark::DoNotOptimize(model);
  }
  state.SetItemsProcessed(state.iterations() * 512);
  state.SetLabel(method_label(state.range(0)));
}
BENCHMARK(BM_GbtFit512)->Arg(0)->Arg(1)->Arg(2);

// Scoring a 2000-configuration pool: one predict() call per row (the
// pre-cache tuner loop) vs the batched predict_matrix path. Both run
// through the compiled forest.
void BM_GbtPredictPoolSerial(benchmark::State& state) {
  Rng rng(10);
  const auto train = synth(512, 7, rng);
  const auto pool = synth(2000, 7, rng);
  ml::GradientBoostedTrees model(deep_fit_params(ml::TreeMethod::kExact));
  model.fit(train, rng);
  std::vector<double> out(pool.size());
  for (auto _ : state) {
    for (std::size_t i = 0; i < pool.size(); ++i) {
      out[i] = model.predict(pool.row(i));
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_GbtPredictPoolSerial);

void BM_GbtPredictPoolBatch(benchmark::State& state) {
  Rng rng(10);
  const auto train = synth(512, 7, rng);
  const auto pool = rows_of(synth(2000, 7, rng));
  ml::GradientBoostedTrees model(deep_fit_params(ml::TreeMethod::kExact));
  model.fit(train, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict_matrix(pool));
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_GbtPredictPoolBatch);

// The component-model shape behind low_fidelity.score: surrogate
// defaults fitted at n = 500 on tie-heavy discrete features, then
// batch-scoring a pool of state.range(0) rows. The 200- and 500-row
// pools sit near CompiledForest's kParallelPredictWork threshold.
void BM_GbtPredictPool500(benchmark::State& state) {
  Rng rng(11);
  const auto train = synth_discrete(500, 7, rng);
  const auto pool = rows_of(
      synth_discrete(static_cast<std::size_t>(state.range(0)), 7, rng));
  ml::GradientBoostedTrees model(
      ml::GradientBoostedTrees::surrogate_defaults());
  model.fit(train, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict_matrix(pool));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["nodes"] =
      static_cast<double>(model.compiled()->node_count());
}
BENCHMARK(BM_GbtPredictPool500)->Arg(2000)->Arg(500)->Arg(200);

void BM_RandomForestFit(benchmark::State& state) {
  Rng rng(5);
  const auto data = synth(static_cast<std::size_t>(state.range(0)), 7, rng);
  for (auto _ : state) {
    ml::RandomForest model;
    Rng fit_rng(6);
    model.fit(data, fit_rng);
    benchmark::DoNotOptimize(model);
  }
}
BENCHMARK(BM_RandomForestFit)->Arg(50)->Arg(200);

void BM_KnnPredict(benchmark::State& state) {
  Rng rng(7);
  const auto data = synth(static_cast<std::size_t>(state.range(0)), 7, rng);
  ml::KnnRegressor model;
  model.fit(data, rng);
  const std::vector<double> x(7, 50.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(x));
  }
}
BENCHMARK(BM_KnnPredict)->Arg(500)->Arg(2000);

}  // namespace

// Custom main (shared helper): mirror the console output into
// BENCH_micro_ml.json with the common "ceal" metadata header by default.
// Explicit --benchmark_out flags still win.
int main(int argc, char** argv) {
  auto bench_args =
      ceal::bench::make_bench_args(argc, argv, "BENCH_micro_ml.json");
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
