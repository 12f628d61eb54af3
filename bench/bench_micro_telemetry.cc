// Micro-benchmarks of the telemetry layer (google-benchmark): the cost
// of a fully traced tuning session against the disabled path, plus the
// per-site primitives. The overhead contract (docs/OBSERVABILITY.md) is
// that attaching telemetry costs a session little: the session
// benchmark's disabled_ms/null_sink_ms pair below is the evidence.
//
// Besides the console table, the run writes machine-readable results to
// BENCH_micro_telemetry.json in the working directory.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench/common.h"
#include "core/json.h"
#include "core/rng.h"
#include "core/telemetry.h"
#include "sim/workloads.h"
#include "tuner/ceal.h"
#include "tuner/measured_pool.h"

namespace {

using namespace ceal;

/// Shared workload + pools, built once (pool measurement dominates a
/// single tuning session).
struct Fixture {
  static const Fixture& instance() {
    static Fixture f;
    return f;
  }

  Fixture()
      : wl(sim::make_lv()),
        pool(tuner::measure_pool(wl.workflow, 400, 21)),
        comps(tuner::measure_components(wl.workflow, 120, 22)) {}

  sim::Workload wl;
  tuner::MeasuredPool pool;
  std::vector<tuner::ComponentSamples> comps;
};

/// CPU seconds of the whole process. With more than one worker the pool
/// runs part of every session, which the benchmark thread's own cpu_time
/// leaves out.
double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Process CPU seconds of one gated session: CEAL with histories on LV,
/// budget 25.
double session_cpu_seconds(telemetry::Telemetry* tel) {
  const Fixture& f = Fixture::instance();
  tuner::TuningProblem problem{&f.wl, tuner::Objective::kExecTime, &f.pool,
                               &f.comps, true, {}};
  problem.telemetry = tel;
  const tuner::Ceal algo(tuner::CealParams::with_history());
  Rng rng(7);
  const double start = process_cpu_seconds();
  benchmark::DoNotOptimize(algo.tune(problem, 25, rng));
  return process_cpu_seconds() - start;
}

// The overhead gate's measure. The arms take turns going first, session
// after session, so a change in host load charges every arm alike. The
// arms:
//   disabled:  a null Telemetry pointer, every site one branch;
//   null_sink: events built and dropped by a NullTraceSink;
//   no_sink:   metrics only, emit() drops events at its no-sink branch —
//              the mode `ceal_tune --metrics-summary` runs in.
// Each counter is the arm's mean process CPU per session, in ms.
void BM_CealSessionTelemetry(benchmark::State& state) {
  // Sessions per arm in one benchmark iteration: tools/run_tier1.sh asks
  // for 0.05 s per repetition, which would hold ~5 sessions per arm, too
  // few to average out the host's session-to-session noise.
  constexpr std::size_t kTurnsPerIteration = 24;
  Fixture::instance();  // measure the pools before any session is timed
  telemetry::NullTraceSink sink;
  telemetry::Telemetry null_sink(&sink), no_sink;
  telemetry::Telemetry* const arms[] = {nullptr, &null_sink, &no_sink};
  constexpr std::size_t kArms = std::size(arms);
  double cpu_s[kArms] = {};
  std::size_t first = 0;
  for (auto _ : state) {
    for (std::size_t turn = 0; turn < kTurnsPerIteration; ++turn) {
      for (std::size_t k = 0; k < kArms; ++k) {
        const std::size_t arm = (first + k) % kArms;
        cpu_s[arm] += session_cpu_seconds(arms[arm]);
      }
      first = (first + 1) % kArms;
    }
  }
  const double sessions =
      static_cast<double>(state.iterations() * kTurnsPerIteration);
  state.counters["disabled_ms"] = 1e3 * cpu_s[0] / sessions;
  state.counters["null_sink_ms"] = 1e3 * cpu_s[1] / sessions;
  state.counters["no_sink_ms"] = 1e3 * cpu_s[2] / sessions;
}
BENCHMARK(BM_CealSessionTelemetry)->Unit(benchmark::kMillisecond);

// --- Per-site primitives. ---

void BM_ScopedSpanNull(benchmark::State& state) {
  for (auto _ : state) {
    telemetry::ScopedSpan span(nullptr, "surrogate.fit");
    benchmark::DoNotOptimize(span.stop());
  }
}
BENCHMARK(BM_ScopedSpanNull);

void BM_ScopedSpanActive(benchmark::State& state) {
  telemetry::Telemetry tel;
  for (auto _ : state) {
    telemetry::ScopedSpan span(&tel, "surrogate.fit");
    benchmark::DoNotOptimize(span.stop());
  }
}
BENCHMARK(BM_ScopedSpanActive);

void BM_CounterIncrement(benchmark::State& state) {
  telemetry::Telemetry tel;
  for (auto _ : state) {
    tel.count("measure.requests");
  }
  benchmark::DoNotOptimize(tel.counter("measure.requests"));
}
BENCHMARK(BM_CounterIncrement);

void BM_EmitToNullSink(benchmark::State& state) {
  telemetry::NullTraceSink sink;
  telemetry::Telemetry tel(&sink);
  const std::vector<std::size_t> batch{1, 2, 3, 4, 5, 6, 7};
  for (auto _ : state) {
    telemetry::TraceEvent event("measure");
    event.field("pool_index", std::uint64_t{42})
        .field("status", "ok")
        .field("value", 319.82)
        .field("batch", std::span<const std::size_t>(batch));
    tel.emit(std::move(event));
  }
}
BENCHMARK(BM_EmitToNullSink);

// --- Overhead-contract gate over the written JSON. ---

/// Field `field` of benchmark `name` from a google-benchmark JSON
/// document, preferring the `median` aggregate when repetitions were
/// run; -1 when absent.
double bench_value(const json::Value& root, const std::string& name,
                   const std::string& field) {
  const json::Value& benchmarks = root.at("benchmarks");
  double plain = -1.0;
  for (std::size_t i = 0; i < benchmarks.size(); ++i) {
    const json::Value& b = benchmarks.at(i);
    const json::Value* value = b.find(field);
    if (value == nullptr) continue;
    if (const json::Value* agg = b.find("aggregate_name")) {
      const json::Value* run_name = b.find("run_name");
      if (agg->as_string() == "median" && run_name != nullptr &&
          run_name->as_string() == name) {
        return value->as_double();  // median wins outright
      }
      continue;
    }
    if (const json::Value* n = b.find("name");
        n != nullptr && n->as_string() == name && plain < 0.0) {
      plain = value->as_double();
    }
  }
  return plain;
}

/// Disabled-vs-null-sink session delta (per-session process CPU, median
/// over repetitions) must stay within CEAL_TELEMETRY_OVERHEAD_TOL
/// (relative, default 0.01). Returns the process exit code.
int check_overhead_contract(const std::string& json_path) {
  std::ifstream in(json_path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const json::Value root = json::Value::parse(buffer.str());

  const double disabled =
      bench_value(root, "BM_CealSessionTelemetry", "disabled_ms");
  const double null_sink =
      bench_value(root, "BM_CealSessionTelemetry", "null_sink_ms");
  if (disabled <= 0.0 || null_sink <= 0.0) {
    std::cout << "overhead gate skipped (session benchmarks not in this "
                 "run)\n";
    return 0;
  }

  double tolerance = 0.01;
  if (const char* env = std::getenv("CEAL_TELEMETRY_OVERHEAD_TOL")) {
    const double v = std::strtod(env, nullptr);
    if (v > 0.0) tolerance = v;
  }
  const double rel = (null_sink - disabled) / disabled;
  std::cout << "telemetry session overhead: disabled=" << disabled
            << "ms null_sink=" << null_sink << "ms delta=" << rel * 100.0
            << "% (tolerance " << tolerance * 100.0 << "%)\n";
  if (rel > tolerance) {
    std::cerr << "FAILED: disabled-path overhead contract broken ("
              << rel * 100.0 << "% > " << tolerance * 100.0 << "%)\n";
    return 1;
  }
  return 0;
}

}  // namespace

// Custom main (shared helper): write BENCH_micro_telemetry.json with the
// common "ceal" metadata header, then enforce the disabled-path overhead
// contract — the fully disabled session (null Telemetry pointer, one
// branch per site) and the null-sink session must agree within
// CEAL_TELEMETRY_OVERHEAD_TOL (relative, default 0.01 per
// docs/OBSERVABILITY.md; CI loosens it because single-core container
// wall clocks are noisy). A broken contract exits nonzero instead of
// just printing numbers.
int main(int argc, char** argv) {
  auto bench_args =
      ceal::bench::make_bench_args(argc, argv, "BENCH_micro_telemetry.json");
  benchmark::Initialize(&bench_args.argc, bench_args.argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_args.argc,
                                             bench_args.argv.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (bench_args.json_path.empty()) return 0;
  ceal::bench::annotate_bench_json(bench_args.json_path);
  return check_overhead_contract(bench_args.json_path);
}
