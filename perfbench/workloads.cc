// The four workloads of ceal_e2e. Why each exists, and which end-to-end
// metric each layer metric should move, is in README.md.
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/json.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "ml/gbt.h"
#include "serve/server.h"
#include "sim/workloads.h"
#include "tuner/active_learning.h"
#include "tuner/ceal.h"
#include "tuner/evaluation.h"
#include "tuner/geist.h"
#include "tuner/low_fidelity.h"
#include "tuner/measured_pool.h"
#include "tuner/pool_scorer.h"
#include "tuner/random_search.h"
#include "tuner/result_io.h"
#include "tuner/stepper.h"
#include "tuner/surrogate.h"
#include "tuner/tuning_util.h"
#include "run.h"
#include "serve_load.h"

namespace perfbench {

namespace {

namespace sim = ceal::sim;
namespace tuner = ceal::tuner;
using tuner::Objective;
using Span = Tracer::Span;

// In a traced run the untraced pass takes this share of --seconds; the
// traced pass then repeats exactly the same work.
constexpr double kUntracedPassShare = 0.3;

// Pools and component samples are fixed, as in the reproduction benches;
// --seed picks the tuning sessions run against them. A seeded pool would
// change tree shapes and so the cost of every fit, and run-to-run spread
// would measure the pool rather than the code.
constexpr std::uint64_t kPoolSeed = 20211114;
constexpr std::uint64_t kComponentSeed = 20211119;

// ---------------------------------------------------------------------
// Shared helpers

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [](double x, double y) { return same_bits(x, y); });
}

double to_ms(double seconds) { return seconds * 1e3; }

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

double nproc() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void latency_metrics(Run& run, const std::string& p50_name,
                     const std::string& tail_name,
                     const std::vector<double>& samples,
                     const std::string& unit) {
  const Latency l = summarize(samples);
  char note[96];
  std::snprintf(note, sizeof(note), "p%.1f of %zu samples",
                l.tail_percentile, l.samples);
  run.metric(p50_name, l.p50, unit,
             "median of " + std::to_string(l.samples) + " samples");
  run.metric(tail_name, l.tail, unit, note);
}

/// Process CPU over a window divided by wall time times core count.
class CpuMeter {
 public:
  double busy_fraction() const {
    const double wall = seconds_since(start_);
    return wall > 0.0 ? (process_cpu_seconds() - cpu_start_) / (wall * nproc())
                      : 0.0;
  }

 private:
  double cpu_start_ = process_cpu_seconds();
  Clock::time_point start_ = Clock::now();
};

/// Set-up layer metrics read from the spans of the kSetupReps set-ups.
void setup_layer_metrics(Run& run, std::size_t pool_rows_per_setup) {
  const Tracer& t = run.tracer;
  const double reps = kSetupReps;
  const double pool_s = t.total_seconds("sim.pool");
  run.metric("sim.pool_s", pool_s / reps, "s");
  if (pool_s > 0.0) {
    run.metric("sim.pool_rows_per_s",
               static_cast<double>(pool_rows_per_setup) * reps / pool_s,
               "1/s");
  }
  run.metric("sim.components_s", t.total_seconds("sim.components") / reps,
             "s");
  run.metric("tuner.geist_graph_s",
             t.total_seconds("tuner.geist_graph") / reps, "s");
  run.metric("tuner.featurize_s", t.total_seconds("tuner.featurize") / reps,
             "s");
}

/// Overhead, per-span self time and the unattributed share; also writes
/// the spans as a Chrome trace into the output directory.
void trace_metrics(Run& run, double untraced_s, double traced_s) {
  run.metric("trace.overhead_frac", (traced_s - untraced_s) / untraced_s,
             "ratio", "traced vs untraced wall of the same work");
  for (const auto& [name, self_s] : run.tracer.self_seconds()) {
    run.metric(name + ".self_s", self_s, "s");
  }
  run.metric("unattributed", run.tracer.unattributed_fraction(), "ratio",
             "share of traced wall outside every span");
  const std::string path = run.options.out_dir + "/" + run.options.workload +
                           "-" + std::to_string(run.options.seed) +
                           ".trace.json";
  run.check(run.tracer.write_chrome_json(path), "cannot write " + path);
}

// ---------------------------------------------------------------------
// Single-layer probes, timed at a workload's own shapes in the traced
// run: component-model fit over every component sample, surrogate fit
// at n = budget, pool scoring with both models, top-k selection.

struct ProbeShape {
  const sim::Workload* workload = nullptr;
  Objective objective = Objective::kExecTime;
  const tuner::MeasuredPool* pool = nullptr;
  const std::vector<tuner::ComponentSamples>* components = nullptr;
  const tuner::PoolScorer* scorer = nullptr;
  ceal::ml::GbtParams gbt = ceal::ml::GradientBoostedTrees::surrogate_defaults();
  std::size_t budget = 0;
};

template <class Fn>
double timed_ms(Run& run, Fn&& fn) {
  Span span(run.tracer, "probe");
  const Clock::time_point t0 = Clock::now();
  fn();
  return to_ms(seconds_since(t0));
}

void run_probes(Run& run, const ProbeShape& p) {
  constexpr int kReps = 5;
  const auto& workflow = p.workload->workflow;
  ceal::Rng rng(run.derive(50));

  std::vector<std::vector<std::size_t>> all_samples(p.components->size());
  std::size_t component_rows = 0;
  for (std::size_t j = 0; j < all_samples.size(); ++j) {
    all_samples[j].resize((*p.components)[j].size());
    std::iota(all_samples[j].begin(), all_samples[j].end(), 0);
    component_rows = std::max(component_rows, all_samples[j].size());
  }
  std::shared_ptr<const tuner::ComponentModelSet> components;
  std::vector<double> fit_ms;
  for (int rep = 0; rep < kReps; ++rep) {
    fit_ms.push_back(timed_ms(run, [&] {
      components = std::make_shared<const tuner::ComponentModelSet>(
          workflow, p.objective, *p.components, all_samples, rng, p.gbt);
    }));
  }
  run.metric("ml.component_fit_ms", repeated_cost(fit_ms), "ms",
             "n=" + std::to_string(component_rows) + " per component");

  // Training rows: `budget` distinct pool rows from a seeded shuffle.
  std::vector<std::size_t> order(p.pool->size());
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = 0; i < p.budget; ++i) {
    std::swap(order[i], order[i + rng.uniform_u64(order.size() - i)]);
  }
  std::vector<ceal::config::Configuration> train;
  std::vector<double> targets;
  for (std::size_t i = 0; i < p.budget; ++i) {
    train.push_back(p.pool->configs[order[i]]);
    targets.push_back(p.pool->measured(p.objective)[order[i]]);
  }
  tuner::Surrogate surrogate(p.gbt);
  std::vector<double> surrogate_ms;
  for (int rep = 0; rep < kReps; ++rep) {
    surrogate_ms.push_back(timed_ms(run, [&] {
      surrogate.fit(workflow.joint_space(), train, targets, rng);
    }));
  }
  run.metric("ml.surrogate_fit_ms", repeated_cost(surrogate_ms), "ms",
             "n=" + std::to_string(p.budget));

  const double rows = static_cast<double>(p.scorer->size());
  std::vector<double> scores;
  std::vector<double> score_ms;
  for (int rep = 0; rep < kReps; ++rep) {
    score_ms.push_back(
        timed_ms(run, [&] { scores = p.scorer->surrogate_scores(surrogate); }));
  }
  run.metric("tuner.score_rows_per_s", rows / (repeated_cost(score_ms) * 1e-3),
             "1/s", std::to_string(p.scorer->size()) + " rows");

  const tuner::LowFidelityModel low_fidelity(workflow, p.objective,
                                             components);
  std::vector<double> lowfi_ms;
  for (int rep = 0; rep < kReps; ++rep) {
    lowfi_ms.push_back(timed_ms(
        run, [&] { (void)p.scorer->low_fidelity_scores(low_fidelity); }));
  }
  run.metric("tuner.lowfi_rows_per_s", rows / (repeated_cost(lowfi_ms) * 1e-3),
             "1/s", std::to_string(p.scorer->size()) + " rows");

  std::vector<double> topk_ms;
  std::size_t kept = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    topk_ms.push_back(timed_ms(
        run, [&] { kept = tuner::smallest_k(scores, p.budget).size(); }));
  }
  run.check(kept == std::min(p.budget, p.scorer->size()),
            "smallest_k returned the wrong count");
  run.metric("tuner.topk_ms", repeated_cost(topk_ms), "ms",
             "k=" + std::to_string(p.budget));
}

// ---------------------------------------------------------------------
// Stepper-driven sessions (history, large-pool, and serve's solo runs)

struct SessionRun {
  tuner::TuneResult result;
  double wall_s = 0.0;
  double make_stepper_s = 0.0;
  std::size_t steps = 0;
  bool ok = false;
};

/// One tuning session driven by TunerStepper::step, each step timed.
SessionRun run_session(Run& run, const tuner::AutoTuner& algorithm,
                       const tuner::TuningProblem& problem,
                       std::size_t budget, std::uint64_t seed,
                       std::vector<double>& step_ms) {
  SessionRun out;
  ++run.attempted;
  ceal::Rng rng(seed);
  const Clock::time_point t0 = Clock::now();
  try {
    std::unique_ptr<tuner::TunerStepper> stepper;
    {
      Span span(run.tracer, "tuner.make_stepper");
      stepper = algorithm.make_stepper(problem, budget, rng);
    }
    out.make_stepper_s = seconds_since(t0);
    for (bool more = true; more;) {
      Span span(run.tracer, "tuner.step");
      const Clock::time_point ts = Clock::now();
      more = stepper->step();
      step_ms.push_back(to_ms(seconds_since(ts)));
    }
    out.steps = stepper->steps_taken();
    out.result = stepper->take_result();
    out.ok = true;
  } catch (const std::exception& e) {
    ++run.failed;
    run.check(false, std::string("session threw: ") + e.what());
  }
  out.wall_s = seconds_since(t0);
  if (out.ok && out.result.failed_runs > 0) ++run.failed;
  return out;
}

void check_result(Run& run, const tuner::TuneResult& r, std::size_t pool_size,
                  std::size_t budget) {
  Span span(run.tracer, "check");
  run.check(r.model_scores.size() == pool_size, "scores do not cover pool");
  run.check(!r.model_scores.empty() &&
                r.best_predicted_index ==
                    tuner::smallest_k(r.model_scores, 1).front(),
            "recommendation is not the argmin of the final scores");
  run.check(r.runs_used <= budget, "session overspent its budget");
  run.check(r.measured_indices.size() == r.measured_statuses.size(),
            "measurement ledger is inconsistent");
}

bool same_result(const tuner::TuneResult& a, const tuner::TuneResult& b) {
  return a.best_predicted_index == b.best_predicted_index &&
         a.best_measured_index == b.best_measured_index &&
         a.runs_used == b.runs_used &&
         a.measured_indices == b.measured_indices &&
         same_bits(a.cost_exec_s, b.cost_exec_s) &&
         same_bits(a.cost_comp_ch, b.cost_comp_ch) &&
         same_bits(a.model_scores, b.model_scores);
}

/// Actual (noise-free) objective of the recommendation over the pool
/// optimum; 1.0 is the best configuration in the pool.
double norm_perf(const tuner::MeasuredPool& pool, Objective objective,
                 std::size_t recommended) {
  const auto& truth = pool.truth(objective);
  return truth[recommended] / truth[pool.best_truth_index(objective)];
}

// ---------------------------------------------------------------------
// suite: RS/AL/GEIST/CEAL on a fixed subset of the fig5 cells, each cell
// one serial tuner::evaluate call exactly as bench::run_cell makes it.

constexpr std::size_t kSuitePoolRows = 2000;
constexpr std::size_t kSuiteComponentSamples = 500;
constexpr std::size_t kSuiteReplications = 2;
/// Every untraced run makes at least this many passes, each with its own
/// evaluate() seed; norm_perf is the mean over exactly these.
constexpr std::size_t kSuiteSeeds = 4;
constexpr std::size_t kGeistNeighbors = 10;

struct SuiteCell {
  std::size_t workflow;  // index into make_all_workloads(): LV, HS, GP
  Objective objective;
  std::size_t budget;
  const char* algorithm;
};

std::vector<SuiteCell> suite_cells() {
  struct Panel {
    std::size_t workflow;
    Objective objective;
    std::size_t budget;
  };
  const Panel panels[] = {
      {0, Objective::kExecTime, 50},      {0, Objective::kComputerTime, 25},
      {1, Objective::kExecTime, 100},     {1, Objective::kComputerTime, 50},
      {2, Objective::kComputerTime, 50},
  };
  std::vector<SuiteCell> cells;
  for (const Panel& p : panels) {
    for (const char* algo : {"RS", "GEIST", "AL", "CEAL"}) {
      cells.push_back({p.workflow, p.objective, p.budget, algo});
    }
  }
  return cells;
}

struct SuiteState {
  std::vector<sim::Workload> workloads;
  std::vector<tuner::MeasuredPool> pools;
  std::vector<std::vector<tuner::ComponentSamples>> components;
  std::vector<std::shared_ptr<const tuner::PoolGraph>> graphs;
  std::vector<std::unique_ptr<tuner::PoolScorer>> scorers;
  std::vector<SuiteCell> cells;
  std::vector<std::unique_ptr<tuner::AutoTuner>> algorithms;  // per cell
};

std::unique_ptr<tuner::AutoTuner> make_algorithm(
    const std::string& name, std::shared_ptr<const tuner::PoolGraph> graph) {
  if (name == "RS") return std::make_unique<tuner::RandomSearch>();
  if (name == "AL") return std::make_unique<tuner::ActiveLearning>();
  if (name == "CEAL") return std::make_unique<tuner::Ceal>();
  tuner::GeistParams params;
  params.graph = std::move(graph);
  return std::make_unique<tuner::Geist>(params);
}

std::unique_ptr<SuiteState> build_suite(Run& run) {
  auto s = std::make_unique<SuiteState>();
  s->workloads = sim::make_all_workloads();
  const std::size_t n = s->workloads.size();
  s->pools.reserve(n);  // scorers keep spans into the pools
  for (const auto& wl : s->workloads) {
    Span span(run.tracer, "sim.pool");
    s->pools.push_back(
        tuner::measure_pool(wl.workflow, kSuitePoolRows, kPoolSeed));
  }
  for (const auto& wl : s->workloads) {
    Span span(run.tracer, "sim.components");
    s->components.push_back(tuner::measure_components(
        wl.workflow, kSuiteComponentSamples, kComponentSeed));
  }
  for (std::size_t w = 0; w < n; ++w) {
    Span span(run.tracer, "tuner.geist_graph");
    s->graphs.push_back(std::make_shared<const tuner::PoolGraph>(
        s->workloads[w].workflow.joint_space(), s->pools[w].configs,
        kGeistNeighbors));
  }
  for (std::size_t w = 0; w < n; ++w) {
    Span span(run.tracer, "tuner.featurize");
    s->scorers.push_back(std::make_unique<tuner::PoolScorer>(
        s->workloads[w].workflow, s->pools[w].configs, 0, nullptr));
  }
  s->cells = suite_cells();
  for (const SuiteCell& cell : s->cells) {
    s->algorithms.push_back(
        make_algorithm(cell.algorithm, s->graphs[cell.workflow]));
  }
  return s;
}

struct CellRun {
  tuner::EvalSummary summary;
  double wall_s = 0.0;
  bool ok = false;
};

/// One pass over every cell; pass p evaluates with the run's seed stream
/// p mod kSuiteSeeds, so passes kSuiteSeeds apart must agree bit for bit.
std::vector<CellRun> suite_pass(Run& run, const SuiteState& s,
                                std::size_t pass) {
  std::vector<CellRun> out(s.cells.size());
  for (std::size_t c = 0; c < s.cells.size(); ++c) {
    const SuiteCell& cell = s.cells[c];
    const std::size_t w = cell.workflow;
    const tuner::TuningProblem problem{&s.workloads[w], cell.objective,
                                       &s.pools[w], &s.components[w],
                                       /*components_are_history=*/false, {}};
    run.attempted += kSuiteReplications;
    const Clock::time_point t0 = Clock::now();
    try {
      Span span(run.tracer, "tuner.evaluate");
      out[c].summary = tuner::evaluate(problem, *s.algorithms[c], cell.budget,
                                       kSuiteReplications,
                                       run.derive(3 + pass % kSuiteSeeds));
      out[c].ok = true;
    } catch (const std::exception& e) {
      run.failed += kSuiteReplications;
      run.check(false, std::string("evaluate threw: ") + e.what());
    }
    out[c].wall_s = seconds_since(t0);
  }
  return out;
}

bool same_summary(const tuner::EvalSummary& a, const tuner::EvalSummary& b) {
  bool same = a.algorithm == b.algorithm && a.workload == b.workload &&
              a.budget == b.budget && a.replications == b.replications;
  for (std::size_t n = 0; n < a.mean_recall.size(); ++n) {
    same = same && same_bits(a.mean_recall[n], b.mean_recall[n]);
  }
  return same && same_bits(a.mean_norm_perf, b.mean_norm_perf) &&
         same_bits(a.median_norm_perf, b.median_norm_perf) &&
         same_bits(a.mean_mdape_all, b.mean_mdape_all) &&
         same_bits(a.mean_mdape_top2, b.mean_mdape_top2) &&
         same_bits(a.mean_cost_exec_s, b.mean_cost_exec_s) &&
         same_bits(a.mean_cost_comp_ch, b.mean_cost_comp_ch) &&
         same_bits(a.mean_runs_used, b.mean_runs_used) &&
         same_bits(a.mean_improvement, b.mean_improvement) &&
         same_bits(a.least_uses, b.least_uses) &&
         same_bits(a.frac_beat_expert, b.frac_beat_expert);
}

/// Checks one pass, and that it equals `reference` (a pass with the same
/// seed) bit for bit when one is given.
void check_suite_pass(Run& run, const SuiteState& s,
                      const std::vector<CellRun>& pass,
                      const std::vector<CellRun>& reference) {
  Span span(run.tracer, "check");
  for (std::size_t c = 0; c < pass.size(); ++c) {
    if (!pass[c].ok) continue;
    const tuner::EvalSummary& e = pass[c].summary;
    const std::string where = std::string(s.cells[c].algorithm) + " cell " +
                              std::to_string(c);
    run.check(std::isfinite(e.mean_norm_perf) && e.mean_norm_perf >= 1.0 - 1e-12,
              where + ": normalised performance below the pool optimum");
    run.check(e.mean_runs_used <= static_cast<double>(s.cells[c].budget),
              where + ": runs exceed the budget");
    if (!reference.empty()) {
      run.check(reference[c].ok && same_summary(e, reference[c].summary),
                where + ": EvalSummary differs between passes");
    }
  }
}

}  // namespace

void run_suite(Run& run) {
  SetUp setup(run, [&] { return build_suite(run); });
  const auto state = setup.initial();
  const SuiteState& s = *state;
  const double seconds = run.options.seconds;

  if (!run.options.trace) {
    std::vector<std::vector<CellRun>> first_passes;  // one per seed
    std::vector<std::vector<double>> cell_walls(s.cells.size());
    double wall = 0.0;
    for (std::size_t p = 0; p < kSuiteSeeds || wall < seconds; ++p) {
      const std::vector<CellRun> pass = suite_pass(run, s, p);
      check_suite_pass(run, s, pass,
                       p < kSuiteSeeds ? std::vector<CellRun>{}
                                       : first_passes[p % kSuiteSeeds]);
      if (p < kSuiteSeeds) first_passes.push_back(pass);
      for (std::size_t c = 0; c < pass.size(); ++c) {
        cell_walls[c].push_back(pass[c].wall_s);
        wall += pass[c].wall_s;
      }
      setup.resample();
    }
    setup.record();
    // Each cell's cost is its fastest pass.
    std::vector<double> cell_ms, session_s;
    double total_s = 0.0;
    for (const std::vector<double>& walls : cell_walls) {
      const double cost = repeated_cost(walls);
      cell_ms.push_back(to_ms(cost));
      session_s.push_back(cost / kSuiteReplications);
      total_s += cost;
    }
    const std::string over = "over " + std::to_string(s.cells.size()) +
                             " cells, each the fastest of " +
                             std::to_string(cell_walls[0].size()) + " passes";
    std::vector<double> norms;
    for (const auto& pass : first_passes) {
      for (const CellRun& c : pass) norms.push_back(c.summary.mean_norm_perf);
    }
    run.metric("sessions_per_s",
               static_cast<double>(s.cells.size() * kSuiteReplications) /
                   total_s,
               "1/s", "evaluate() replications " + over);
    latency_metrics(run, "session_p50_s", "session_tail_s", session_s, "s");
    run.metric("steps_per_s", static_cast<double>(s.cells.size()) / total_s,
               "1/s", "evaluate() cells " + over);
    latency_metrics(run, "step_p50_ms", "step_tail_ms", cell_ms, "ms");
    run.metric("norm_perf", mean(norms), "ratio",
               "mean over " + std::to_string(norms.size()) + " cells");
    run.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    return;
  }

  // Traced run: untraced passes, then the same passes traced.
  const CpuMeter cpu;
  std::vector<std::vector<CellRun>> untraced;
  const Clock::time_point t0 = Clock::now();
  do {
    untraced.push_back(suite_pass(run, s, untraced.size()));
  } while (seconds_since(t0) < kUntracedPassShare * seconds);
  const double untraced_s = seconds_since(t0);
  run.metric("core.cpu_busy_frac", cpu.busy_fraction(), "ratio");

  double traced_s = 0.0;
  {
    TraceWindow window(run.tracer);
    const Clock::time_point t1 = Clock::now();
    std::vector<std::vector<CellRun>> traced;
    for (std::size_t p = 0; p < untraced.size(); ++p) {
      traced.push_back(suite_pass(run, s, p));
    }
    traced_s = seconds_since(t1);
    std::vector<double> cell_s;
    for (std::size_t p = 0; p < traced.size(); ++p) {
      check_suite_pass(run, s, traced[p], untraced[p]);
      for (const CellRun& c : traced[p]) cell_s.push_back(c.wall_s);
    }
    run.metric("tuner.evaluate_cell_s", median(cell_s), "s",
               "median over " + std::to_string(cell_s.size()) + " cells");
    ProbeShape probe;
    probe.workload = &s.workloads[0];
    probe.objective = Objective::kExecTime;
    probe.pool = &s.pools[0];
    probe.components = &s.components[0];
    probe.scorer = s.scorers[0].get();
    probe.budget = 50;
    run_probes(run, probe);
  }
  setup_layer_metrics(run, kSuitePoolRows * s.pools.size());
  trace_metrics(run, untraced_s, traced_s);
}

// ---------------------------------------------------------------------
// history and large-pool: CEAL sessions over distinct seeds on one pool,
// each driven step by step.

namespace {

struct StepperSpec {
  sim::Workload (*make_workload)();
  Objective objective;
  std::size_t pool_rows;
  std::size_t component_samples;
  bool history;
  bool quantized;
  std::size_t budget;
  /// Distinct sessions, run in rounds until --seconds is used up;
  /// norm_perf is the mean over them, so it repeats exactly for a seed.
  std::size_t seeds;
};

struct StepperState {
  explicit StepperState(sim::Workload wl) : workload(std::move(wl)) {}
  sim::Workload workload;
  tuner::MeasuredPool pool;
  std::vector<tuner::ComponentSamples> components;
  std::unique_ptr<tuner::PoolScorer> scorer;
  tuner::TuningProblem problem;
  tuner::Ceal algorithm;
};

std::unique_ptr<StepperState> build_stepper(Run& run, const StepperSpec& spec) {
  auto s = std::make_unique<StepperState>(spec.make_workload());
  const auto& workflow = s->workload.workflow;
  {
    Span span(run.tracer, "sim.pool");
    s->pool = tuner::measure_pool(workflow, spec.pool_rows, kPoolSeed);
  }
  {
    Span span(run.tracer, "sim.components");
    s->components = tuner::measure_components(
        workflow, spec.component_samples, kComponentSeed);
  }
  {
    Span span(run.tracer, "tuner.featurize");
    s->scorer = std::make_unique<tuner::PoolScorer>(
        workflow, s->pool.configs, 0, nullptr);
  }
  s->problem = tuner::TuningProblem{&s->workload, spec.objective, &s->pool,
                                    &s->components, spec.history, {}};
  if (spec.quantized) {
    s->problem.surrogate_gbt.tree.method = ceal::ml::TreeMethod::kQuantized;
  }
  return s;
}

std::uint64_t session_seed(const Run& run, std::size_t i) {
  return run.derive(100 + i);
}

void run_stepper_workload(Run& run, const StepperSpec& spec) {
  SetUp setup(run, [&] { return build_stepper(run, spec); });
  const auto state = setup.initial();
  const StepperState& s = *state;
  const double seconds = run.options.seconds;
  const auto one = [&](std::size_t i, std::vector<double>& step_ms) {
    SessionRun r = run_session(run, s.algorithm, s.problem, spec.budget,
                               session_seed(run, i), step_ms);
    if (r.ok) check_result(run, r.result, s.pool.size(), spec.budget);
    return r;
  };

  if (!run.options.trace) {
    // Rounds over the same seeds, so each session is measured repeatedly.
    const std::size_t n = spec.seeds;
    std::vector<std::vector<double>> make_walls(n);
    std::vector<std::vector<std::vector<double>>> step_walls(n);  // [i][step]
    std::vector<tuner::TuneResult> first(n);
    std::vector<double> norms;
    double wall = 0.0;
    for (std::size_t round = 0; round == 0 || wall < seconds; ++round) {
      for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> step_ms;
        SessionRun r = one(i, step_ms);
        wall += r.wall_s;
        make_walls[i].push_back(r.make_stepper_s);
        step_walls[i].resize(std::max(step_walls[i].size(), step_ms.size()));
        for (std::size_t j = 0; j < step_ms.size(); ++j) {
          step_walls[i][j].push_back(step_ms[j]);
        }
        if (!r.ok) continue;
        if (round == 0) {
          norms.push_back(norm_perf(s.pool, spec.objective,
                                    r.result.best_predicted_index));
          first[i] = std::move(r.result);
        } else {
          run.check(same_result(r.result, first[i]),
                    "session " + std::to_string(i) + " differs between rounds");
        }
      }
      setup.resample();
    }
    setup.record();
    // Each step's cost is its fastest round, and a session's cost is the
    // sum of its parts' costs: a short part is likelier than a whole
    // session to have run once with no vCPU contended.
    std::vector<double> session_cost, step_cost;
    double total_s = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double cost = repeated_cost(make_walls[i]);
      for (const std::vector<double>& reps : step_walls[i]) {
        step_cost.push_back(repeated_cost(reps));
        cost += step_cost.back() * 1e-3;
      }
      session_cost.push_back(cost);
      total_s += cost;
    }
    const std::string over =
        "over " + std::to_string(n) + " sessions, each part the fastest of " +
        std::to_string(make_walls[0].size()) + " rounds";
    run.metric("sessions_per_s", static_cast<double>(n) / total_s, "1/s",
               over);
    latency_metrics(run, "session_p50_s", "session_tail_s", session_cost, "s");
    run.metric("steps_per_s", static_cast<double>(step_cost.size()) / total_s,
               "1/s", "TunerStepper::step calls " + over);
    latency_metrics(run, "step_p50_ms", "step_tail_ms", step_cost, "ms");
    run.metric("norm_perf", mean(norms), "ratio",
               "mean over " + std::to_string(norms.size()) + " sessions");
    run.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    return;
  }

  const CpuMeter cpu;
  std::vector<SessionRun> untraced;
  std::vector<double> untraced_step_ms;
  const Clock::time_point t0 = Clock::now();
  do {
    untraced.push_back(one(untraced.size(), untraced_step_ms));
  } while (untraced.size() < 2 ||
           seconds_since(t0) < kUntracedPassShare * seconds);
  const double untraced_s = seconds_since(t0);
  run.metric("core.cpu_busy_frac", cpu.busy_fraction(), "ratio");

  double traced_s = 0.0;
  {
    TraceWindow window(run.tracer);
    std::vector<double> step_ms;
    std::size_t steps = 0;
    const Clock::time_point t1 = Clock::now();
    for (std::size_t i = 0; i < untraced.size(); ++i) {
      const SessionRun r = one(i, step_ms);
      steps += r.steps;
      run.check(r.ok && untraced[i].ok &&
                    same_result(r.result, untraced[i].result),
                "session " + std::to_string(i) +
                    ": traced and untraced results differ");
    }
    traced_s = seconds_since(t1);
    latency_metrics(run, "tuner.step_p50_ms", "tuner.step_tail_ms", step_ms,
                    "ms");
    run.metric("tuner.steps_per_session",
               static_cast<double>(steps) / untraced.size(), "count",
               "over " + std::to_string(untraced.size()) + " sessions");
    ProbeShape probe;
    probe.workload = &s.workload;
    probe.objective = spec.objective;
    probe.pool = &s.pool;
    probe.components = &s.components;
    probe.scorer = s.scorer.get();
    probe.gbt = s.problem.surrogate_gbt;
    probe.budget = spec.budget;
    run_probes(run, probe);
  }
  setup_layer_metrics(run, spec.pool_rows);
  trace_metrics(run, untraced_s, traced_s);
}

}  // namespace

void run_history(Run& run) {
  // HS computer time with free historical component measurements: CEAL
  // fits its component models on all 500 samples per component. The
  // exact trainer these fits use is single-threaded; the only parallel
  // work, 2000-row batch prediction, runs inline on one pool worker so a
  // step does not wait for the slowest of four shared vCPUs (steps spread
  // by up to 0.4 between runs with four). Results do not depend on it.
  ceal::set_global_thread_pool_threads(1);
  run_stepper_workload(run, StepperSpec{sim::make_hs, Objective::kComputerTime,
                                        2000, 500, /*history=*/true,
                                        /*quantized=*/false, 50,
                                        /*seeds=*/12});
}

void run_large_pool(Run& run) {
  // LV execution time over a 200k-row pool with the quantized trainer:
  // prediction and low-fidelity scoring over the pool dominate.
  run_stepper_workload(run, StepperSpec{sim::make_lv, Objective::kExecTime,
                                        200000, 500, /*history=*/false,
                                        /*quantized=*/true, 50,
                                        /*seeds=*/3});
}

// ---------------------------------------------------------------------
// serve: hundreds of interleaved small sessions (every 8th CEAL, the
// rest RS) through serve_stream at 4 threads. The closed-loop passes
// journal every session to disk; the open-loop passes do not, so the
// latency tail measures the server rather than the disk's fsync jitter.

namespace {

constexpr std::size_t kServeSessions = 240;
constexpr std::size_t kServeBudget = 6;
constexpr std::size_t kServePoolRows = 60;
constexpr std::size_t kServeComponentSamples = 30;
constexpr std::size_t kServeThreads = 4;
/// Open-loop arrival rate, well below the closed-loop capacity.
constexpr double kOpenLoopRate = 3000.0;
/// Share of --seconds spent in the closed loop; the rest is open loop.
constexpr double kClosedLoopShare = 0.4;
/// Generator lateness at p99 that a run tolerates whatever the server's
/// latency (see check_generator).
constexpr double kMaxGeneratorLateMs = 5.0;

std::string serve_algorithm(std::size_t i) { return i % 8 == 0 ? "CEAL" : "RS"; }

/// Seeds in session.create must be JSON-exact integers.
std::uint64_t small_seed(std::uint64_t seed) { return seed % 1000000007ULL; }

/// The journaled daemon core with its sessions created; removes its
/// journal directory when destroyed.
class ServeRig {
 public:
  ServeRig(Run& run, const std::string& dir, bool journal,
           std::vector<double>* create_ms)
      : dir_(dir) {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    ceal::serve::ServerOptions options;
    if (journal) options.checkpoint_dir = dir_;
    core_ = std::make_unique<ceal::serve::ServerCore>(options);
    const std::uint64_t pool_seed = kPoolSeed;
    for (std::size_t i = 0; i < kServeSessions; ++i) {
      ids_.push_back("s" + std::to_string(i));
      const std::string line =
          "{\"op\":\"session.create\",\"id\":\"" + ids_.back() +
          "\",\"workflow\":\"LV\",\"objective\":\"exec\",\"budget\":" +
          std::to_string(kServeBudget) + ",\"algorithm\":\"" +
          serve_algorithm(i) + "\",\"seed\":" +
          std::to_string(small_seed(session_seed(run, i))) +
          ",\"pool_size\":" + std::to_string(kServePoolRows) +
          ",\"pool_seed\":" + std::to_string(pool_seed) +
          ",\"component_samples\":" +
          std::to_string(kServeComponentSamples) + "}";
      ++run.attempted;
      const Clock::time_point t0 = Clock::now();
      std::string reply;
      {
        Span span(run.tracer, "serve.create");
        reply = core_->handle_line(line);
      }
      if (create_ms != nullptr) create_ms->push_back(to_ms(seconds_since(t0)));
      const bool ok = ceal::json::Value::parse(reply).at("ok").as_bool();
      if (!ok) ++run.failed;
      run.check(ok, "session.create failed: " + reply);
    }
  }

  ~ServeRig() {
    core_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  ServeRig(const ServeRig&) = delete;
  ServeRig& operator=(const ServeRig&) = delete;

  ceal::serve::ServerCore& core() { return *core_; }
  const std::vector<std::string>& ids() const { return ids_; }

 private:
  std::string dir_;
  std::unique_ptr<ceal::serve::ServerCore> core_;
  std::vector<std::string> ids_;
};

/// The solo counterpart of the served sessions: the same pool and
/// component samples a ServeSession builds from the create parameters.
struct ServeState {
  explicit ServeState(sim::Workload wl) : workload(std::move(wl)) {}
  sim::Workload workload;
  tuner::MeasuredPool pool;
  std::vector<tuner::ComponentSamples> components;
  std::unique_ptr<tuner::PoolScorer> scorer;
  tuner::TuningProblem problem;
  std::vector<double> create_ms;
  std::unique_ptr<ServeRig> rig;  // the first open-loop pass's sessions
};

std::string rig_dir(const Run& run) {
  static std::size_t counter = 0;
  return run.options.out_dir + "/serve-" + std::to_string(getpid()) + "-" +
         std::to_string(counter++);
}

std::unique_ptr<ServeState> build_serve(Run& run) {
  auto s = std::make_unique<ServeState>(sim::make_lv());
  const auto& workflow = s->workload.workflow;
  const std::uint64_t pool_seed = kPoolSeed;
  {
    Span span(run.tracer, "sim.pool");
    s->pool = tuner::measure_pool(workflow, kServePoolRows, pool_seed);
  }
  {
    Span span(run.tracer, "sim.components");
    s->components = tuner::measure_components(
        workflow, kServeComponentSamples, pool_seed + 1);
  }
  {
    Span span(run.tracer, "tuner.featurize");
    s->scorer = std::make_unique<tuner::PoolScorer>(
        workflow, s->pool.configs, 0, nullptr);
  }
  s->problem = tuner::TuningProblem{&s->workload, Objective::kExecTime,
                                    &s->pool, &s->components, false, {}};
  s->rig = std::make_unique<ServeRig>(run, rig_dir(run), /*journal=*/false,
                                      &s->create_ms);
  return s;
}

/// Every final status of a pass must equal the first pass's; a sampled
/// subset must equal solo stepper runs with the same create parameters.
void check_statuses(Run& run, const std::vector<std::string>& statuses,
                    const std::vector<std::string>& reference) {
  Span span(run.tracer, "check");
  for (std::size_t i = 0; i < statuses.size(); ++i) {
    run.check(statuses[i] == reference[i],
              "session s" + std::to_string(i) + " ended differently: " +
                  statuses[i] + " vs " + reference[i]);
  }
}

/// Returns the number of sessions compared.
std::size_t check_against_solo(Run& run, const ServeState& s,
                               const std::vector<std::string>& statuses,
                               std::vector<double>& step_ms) {
  // Two CEAL and two RS sessions, chosen by the run's seed.
  ceal::Rng pick(run.derive(60));
  std::vector<std::size_t> sample;
  for (int k = 0; k < 2; ++k) {
    sample.push_back(8 * pick.uniform_u64(kServeSessions / 8));
    sample.push_back(8 * pick.uniform_u64(kServeSessions / 8) + 1 +
                     pick.uniform_u64(7));
  }
  for (const std::size_t i : sample) {
    const auto algorithm =
        make_algorithm(serve_algorithm(i), /*graph=*/nullptr);
    const SessionRun solo =
        run_session(run, *algorithm, s.problem, kServeBudget,
                    small_seed(session_seed(run, i)), step_ms);
    Span span(run.tracer, "check");
    const std::string where = "session s" + std::to_string(i);
    if (!solo.ok) continue;
    const tuner::TuneResult& r = solo.result;
    const ceal::json::Value st = ceal::json::Value::parse(statuses[i]);
    const auto u = [&](const char* key) {
      return static_cast<std::size_t>(st.at(key).as_int());
    };
    run.check(st.at("state").as_string() == "done", where + ": not done");
    run.check(u("seed") == small_seed(session_seed(run, i)),
              where + ": served seed differs from the requested seed");
    run.check(u("best_predicted_index") == r.best_predicted_index &&
                  u("best_measured_index") == r.best_measured_index &&
                  u("runs_used") == r.runs_used &&
                  u("measured") == r.measured_indices.size() &&
                  u("failed_runs") == r.failed_runs &&
                  u("steps") == solo.steps &&
                  st.at("cost_exec_s").as_string() ==
                      tuner::hex_double(r.cost_exec_s) &&
                  st.at("cost_comp_ch").as_string() ==
                      tuner::hex_double(r.cost_comp_ch),
              where + ": served result differs from the solo stepper run");
  }
  return sample.size();
}

double serve_norm_perf(Run& run, const ServeState& s,
                       const std::vector<std::string>& statuses) {
  std::vector<double> norms;
  for (const std::string& line : statuses) {
    const ceal::json::Value st = ceal::json::Value::parse(line);
    const ceal::json::Value* best = st.find("best_predicted_index");
    run.check(best != nullptr, "served session has no result: " + line);
    if (best == nullptr) continue;
    const auto index = static_cast<std::size_t>(best->as_int());
    run.check(index < s.pool.size(), "recommendation outside the pool");
    if (index < s.pool.size()) {
      norms.push_back(norm_perf(s.pool, Objective::kExecTime, index));
    }
  }
  return mean(norms);
}

/// One closed-loop pass over `rig`, accounted and checked.
ClosedLoopResult closed_pass(Run& run, ServeRig& rig) {
  ClosedLoopResult r;
  {
    Span span(run.tracer, "serve.stream");
    r = run_closed_loop(rig.core(), rig.ids(), kServeThreads);
  }
  run.attempted += r.steps;
  run.failed += r.failed;
  return r;
}

/// One open-loop pass: each session gets the step requests it took in
/// the closed loop, so no request is a no-op on a finished session.
OpenLoopResult open_pass(Run& run, ServeRig& rig,
                         const std::vector<std::size_t>& requests,
                         std::size_t pass) {
  OpenLoopResult r;
  {
    Span span(run.tracer, "serve.stream");
    r = run_open_loop(rig.core(), rig.ids(), requests, kOpenLoopRate,
                      run.derive(300 + pass), kServeThreads);
  }
  run.attempted += r.requests;
  run.failed += r.failed;
  return r;
}

/// Serial handle_line loop: steps every session round-robin to completion
/// and returns each call's service time in ms.
std::vector<double> service_times(Run& run, ServeRig& rig) {
  std::vector<double> ms;
  std::vector<std::size_t> open(rig.ids().size());
  std::iota(open.begin(), open.end(), 0);
  while (!open.empty()) {
    std::vector<std::size_t> still_open;
    for (const std::size_t i : open) {
      const std::string line = step_line(rig.ids()[i]);
      const Clock::time_point t0 = Clock::now();
      std::string reply;
      {
        Span span(run.tracer, "serve.handle_line");
        reply = rig.core().handle_line(line);
      }
      ms.push_back(to_ms(seconds_since(t0)));
      ++run.attempted;
      const ceal::json::Value v = ceal::json::Value::parse(reply);
      const bool ok = v.at("ok").as_bool();
      if (!ok) ++run.failed;
      if (ok && v.at("state").as_string() == "running") still_open.push_back(i);
    }
    open = std::move(still_open);
  }
  return ms;
}

double percentile99(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  return xs[static_cast<std::size_t>(std::ceil(0.99 * xs.size())) - 1];
}

/// Rejects a run whose generator, not the server, fell behind: the
/// generator's p99 lateness is above kMaxGeneratorLateMs and above half
/// the p99 latency of the same requests. Latency is timed from the due
/// time, so generator lateness is inside it; a host stall that delays
/// the server as much as the generator is measured, not rejected.
void check_generator(Run& run, const std::vector<double>& late_ms,
                     const std::vector<double>& latency_ms) {
  const double late = percentile99(late_ms);
  run.check(late <= kMaxGeneratorLateMs ||
                late <= 0.5 * percentile99(latency_ms),
            "open-loop generator fell behind its schedule (p99 " +
                std::to_string(late) + " ms late)");
}

}  // namespace

void run_serve(Run& run) {
  SetUp setup(run, [&] { return build_serve(run); });
  const auto state = setup.initial();
  ServeState& s = *state;
  const double seconds = run.options.seconds;
  std::vector<double> solo_step_ms;

  if (!run.options.trace) {
    // Closed loop over journaled rigs, each created before its pass.
    const Clock::time_point start = Clock::now();
    std::vector<std::string> reference;
    std::vector<std::size_t> requests;
    // Every pass does the same work, so each metric is a per-pass value
    // and the run reports the fastest pass's.
    std::vector<double> pass_s, session_p50, session_tail;
    double session_tail_percentile = 0.0;
    std::size_t steps_per_pass = 0;
    while (reference.empty() ||
           seconds_since(start) < kClosedLoopShare * seconds) {
      ServeRig rig(run, rig_dir(run), /*journal=*/true, nullptr);
      const ClosedLoopResult r = closed_pass(run, rig);
      pass_s.push_back(r.wall_s);
      const Latency l = summarize(r.session_s);
      session_p50.push_back(l.p50);
      session_tail.push_back(l.tail);
      session_tail_percentile = l.tail_percentile;
      if (reference.empty()) {
        reference = r.final_status;
        requests = r.requests;
        steps_per_pass = r.steps;
        check_against_solo(run, s, reference, solo_step_ms);
      }
      run.check(r.steps == steps_per_pass,
                "closed-loop passes took different step counts");
      check_statuses(run, r.final_status, reference);
      setup.resample();
    }
    // Open loop; the first pass uses the set-up's sessions.
    std::vector<double> step_p50, step_tail, late_ms, latency_ms;
    double step_tail_percentile = 0.0;
    for (std::size_t pass = 0;
         pass == 0 || seconds_since(start) < seconds; ++pass) {
      std::unique_ptr<ServeRig> rig = std::move(s.rig);
      if (rig == nullptr) {
        rig = std::make_unique<ServeRig>(run, rig_dir(run), false, nullptr);
      }
      const OpenLoopResult r = open_pass(run, *rig, requests, pass);
      const Latency l = summarize(r.latency_ms);
      step_p50.push_back(l.p50);
      step_tail.push_back(l.tail);
      step_tail_percentile = l.tail_percentile;
      late_ms.insert(late_ms.end(), r.generator_late_ms.begin(),
                     r.generator_late_ms.end());
      latency_ms.insert(latency_ms.end(), r.latency_ms.begin(),
                        r.latency_ms.end());
      check_statuses(run, r.final_status, reference);
      setup.resample();
    }
    setup.record();
    check_generator(run, late_ms, latency_ms);
    const double pass_cost = repeated_cost(pass_s);
    const std::string closed = "closed loop, fastest of " +
                               std::to_string(pass_s.size()) + " passes";
    const std::string open = "fastest of " +
                             std::to_string(step_p50.size()) + " passes";
    run.metric("sessions_per_s", kServeSessions / pass_cost, "1/s", closed);
    run.metric("session_p50_s", repeated_cost(session_p50), "s", closed);
    char note[96];
    std::snprintf(note, sizeof(note), "per-pass p%.1f, ",
                  session_tail_percentile);
    run.metric("session_tail_s", repeated_cost(session_tail), "s",
               note + closed);
    run.metric("steps_per_s", steps_per_pass / pass_cost, "1/s",
               "session.step capacity, " + closed);
    run.metric("step_p50_ms", repeated_cost(step_p50), "ms",
               "open loop, " + open);
    std::snprintf(note, sizeof(note), "open loop, per-pass p%.1f, ",
                  step_tail_percentile);
    run.metric("step_tail_ms", repeated_cost(step_tail), "ms", note + open);
    run.metric("norm_perf", serve_norm_perf(run, s, reference), "ratio",
               "mean over " + std::to_string(reference.size()) + " sessions");
    run.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    std::snprintf(note, sizeof(note), "p99 generator lateness, rate %.0f/s",
                  kOpenLoopRate);
    run.metric("serve.gen_late_ms", percentile99(late_ms), "ms", note);
    return;
  }

  // Traced run: one untraced and one traced closed-loop pass over the
  // same script, then the layer probes.
  const CpuMeter cpu;
  std::vector<ClosedLoopResult> untraced_passes;
  double untraced_s = 0.0;
  const Clock::time_point t0 = Clock::now();
  do {
    ServeRig rig(run, rig_dir(run), true, nullptr);
    untraced_passes.push_back(closed_pass(run, rig));
    untraced_s += untraced_passes.back().wall_s;
  } while (seconds_since(t0) < kUntracedPassShare * seconds);
  run.metric("core.cpu_busy_frac", cpu.busy_fraction(), "ratio");
  const ClosedLoopResult& untraced = untraced_passes.front();
  const std::size_t solo_sessions =
      check_against_solo(run, s, untraced.final_status, solo_step_ms);

  double traced_s = 0.0;
  {
    TraceWindow window(run.tracer);
    for (std::size_t p = 0; p < untraced_passes.size(); ++p) {
      ServeRig rig(run, rig_dir(run), true, nullptr);
      const ClosedLoopResult traced = closed_pass(run, rig);
      traced_s += traced.wall_s;
      check_statuses(run, traced.final_status, untraced.final_status);
    }
    std::vector<double> journaled, plain;
    {
      ServeRig rig(run, rig_dir(run), true, nullptr);
      journaled = service_times(run, rig);
    }
    {
      ServeRig rig(run, rig_dir(run), false, nullptr);
      plain = service_times(run, rig);
    }
    run.metric("serve.service_p50_ms", median(journaled), "ms",
               "ServerCore::handle_line, journaled");
    run.check(journaled.size() == plain.size(),
              "journaled and plain scripts took different step counts");
    const double sum_j = std::accumulate(journaled.begin(), journaled.end(), 0.0);
    const double sum_p = std::accumulate(plain.begin(), plain.end(), 0.0);
    run.metric("serve.journal_ms_per_step",
               (sum_j - sum_p) / static_cast<double>(journaled.size()), "ms");
    {
      const OpenLoopResult open = open_pass(run, *s.rig, untraced.requests, 0);
      check_statuses(run, open.final_status, untraced.final_status);
      check_generator(run, open.generator_late_ms, open.latency_ms);
      run.metric("serve.wait_p50_ms", median(open.latency_ms) - median(plain),
                 "ms", "open-loop response minus service time");
      run.metric("serve.gen_late_ms", percentile99(open.generator_late_ms),
                 "ms", "p99");
    }
    latency_metrics(run, "tuner.step_p50_ms", "tuner.step_tail_ms",
                    solo_step_ms, "ms");
    run.metric("tuner.steps_per_session",
               static_cast<double>(solo_step_ms.size()) / solo_sessions,
               "count", "solo comparison sessions");
    ProbeShape probe;
    probe.workload = &s.workload;
    probe.objective = Objective::kExecTime;
    probe.pool = &s.pool;
    probe.components = &s.components;
    probe.scorer = s.scorer.get();
    probe.budget = kServeBudget;
    run_probes(run, probe);
  }
  run.metric("serve.create_p50_ms", median(s.create_ms), "ms",
             "session.create via handle_line");
  setup_layer_metrics(run, kServePoolRows);
  trace_metrics(run, untraced_s, traced_s);
}

}  // namespace perfbench
