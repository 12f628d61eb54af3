// ceal_tune — run one auto-tuning session (or an averaged evaluation)
// against a benchmark workflow.
//
//   ceal_tune --workflow LV --objective comp --budget 25 --history
//   ceal_tune --workflow HS --objective exec --budget 50
//             --algorithm AL --replications 40
//   ceal_tune --workflow LV --objective exec --budget 50
//             --load-pool pool.csv --save-model surrogate.gbt
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>

#include "core/atomic_file.h"
#include "core/error.h"
#include "core/flight_recorder.h"
#include "core/journal.h"
#include "core/table.h"
#include "core/telemetry.h"
#include "measure/backend.h"
#include "measure/subprocess.h"
#include "ml/gbt.h"
#include "ml/serialize.h"
#include "tools/args.h"
#include "tools/common.h"
#include "tuner/checkpoint.h"
#include "tuner/evaluation.h"
#include "tuner/measured_pool.h"
#include "tuner/pool_io.h"
#include "tuner/result_io.h"

namespace {

constexpr const char* kUsage =
    "--workflow LV|HS|GP --objective exec|comp --budget N\n"
    "\n"
    "tuning:\n"
    "  [--algorithm CEAL|AL|RS|GEIST|ALpH|BO|BO-CEAL]  (default CEAL)\n"
    "  [--history]              treat component samples as free history\n"
    "  [--replications N]       N>1: evaluate instead of one session\n"
    "  [--threads N]            run replications on an N-thread pool\n"
    "  [--pool-size N]          default 2000\n"
    "  [--component-samples N]  default 500\n"
    "  [--pool-seed S] [--seed S]\n"
    "  [--load-pool FILE] [--save-pool FILE]  pool CSV persistence\n"
    "  [--save-model FILE]      persist a surrogate fitted on the session\n"
    "  [--explain]              print the recommendation's cost breakdown\n"
    "\n"
    "fault model:\n"
    "  [--fault-rate P]         per-attempt failure probability (default 0)\n"
    "  [--outlier-rate P]       heavy-tail outlier probability (default 0)\n"
    "  [--deadline S]           censor runs longer than S seconds\n"
    "  [--max-attempts N]       measurement retries per config (default 1)\n"
    "\n"
    "measurement plane (docs/RELIABILITY.md):\n"
    "  [--measure-backend inproc|subprocess]  where runs execute\n"
    "                           (default inproc; results are identical)\n"
    "  [--workers N]            subprocess worker count (default 4)\n"
    "  [--worker-bin PATH]      worker binary (default: sibling\n"
    "                           ceal_worker)\n"
    "  [--hedge-after-s S]      straggler hedging threshold (default\n"
    "                           0.25)\n"
    "  [--hang-after-s S]       worker hang deadline (default 10)\n"
    "  [--degrade-after K]      consecutive faults before falling back\n"
    "                           in-process (default 3)\n"
    "\n"
    "checkpoint:\n"
    "  [--checkpoint DIR]       journal the session to DIR/journal.cealj\n"
    "  [--resume]               resume the journaled session in DIR\n"
    "  [--save-result FILE]     write an exact (hex-float) result CSV\n"
    "\n"
    "observability:\n"
    "  [--trace FILE]           stream JSONL trace events to FILE\n"
    "  [--flight-recorder N]    keep the last N trace events in memory and\n"
    "                           dump them on SIGSEGV/SIGABRT/SIGBUS\n"
    "  [--flight-dump FILE]     crash dump path (default:\n"
    "                           ceal_tune.flight.jsonl)\n"
    "  [--metrics-summary]      print the telemetry counter/span table\n"
    "  [--quiet]                suppress the session report\n"
    "  [--verbose]              echo trace events to stderr\n"
    "\n"
    "performance (docs/PERFORMANCE.md):\n"
    "  [--gbt-backend exact|quantized]  surrogate trainer\n"
    "                           (default exact, the pinned-results path)\n"
    "  [--gbt-bins N]           quantized bins per feature, 2..256\n"
    "                           (default 256)\n"
    "  [--pool-chunk N]         stream pool scoring in N-row blocks\n"
    "                           (bounded memory; default 0 = cache)";

ceal::ml::TreeMethod backend_by_name(const std::string& name) {
  if (name == "exact") return ceal::ml::TreeMethod::kExact;
  if (name == "quantized") return ceal::ml::TreeMethod::kQuantized;
  std::cerr << "unknown --gbt-backend: " << name
            << " (expected exact|quantized)\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ceal;
  tools::Args args(argc, argv, kUsage);

  const auto wl_name = args.required("workflow");
  const auto objective = tools::objective_by_name(args.required("objective"));
  const auto budget = static_cast<std::size_t>(args.integer("budget", 0));
  const auto algo = tools::algorithm_by_name(args.option("algorithm", "CEAL"));
  const bool history = args.flag("history");
  const auto replications =
      static_cast<std::size_t>(args.integer("replications", 1));
  const auto eval_threads =
      static_cast<std::size_t>(args.integer("threads", 0));
  const auto pool_size =
      static_cast<std::size_t>(args.integer("pool-size", 2000));
  const auto comp_samples =
      static_cast<std::size_t>(args.integer("component-samples", 500));
  const auto pool_seed =
      static_cast<std::uint64_t>(args.integer("pool-seed", 1));
  const auto seed = static_cast<std::uint64_t>(args.integer("seed", 42));
  const auto load_pool = args.option("load-pool", "");
  const auto save_pool = args.option("save-pool", "");
  const auto save_model = args.option("save-model", "");
  const bool explain = args.flag("explain");
  const double fault_rate = args.real("fault-rate", 0.0);
  const double outlier_rate = args.real("outlier-rate", 0.0);
  const double deadline = args.real("deadline", 0.0);
  const auto max_attempts =
      static_cast<std::size_t>(args.integer("max-attempts", 1));
  const auto checkpoint_dir = args.option("checkpoint", "");
  const bool resume = args.flag("resume");
  const auto save_result = args.option("save-result", "");
  const auto trace_path = args.option("trace", "");
  const auto flight_capacity =
      static_cast<std::size_t>(args.integer("flight-recorder", 0));
  const auto flight_dump = args.option("flight-dump",
                                       "ceal_tune.flight.jsonl");
  const bool metrics_summary = args.flag("metrics-summary");
  const bool quiet = args.flag("quiet");
  const bool verbose = args.flag("verbose");
  const auto gbt_backend = args.option("gbt-backend", "exact");
  const long gbt_bins = args.integer("gbt-bins", 256);
  const auto pool_chunk =
      static_cast<std::size_t>(args.integer("pool-chunk", 0));
  // Empty means "not given": the default path keeps problem.measure
  // null (the paper's inline collector); an explicit `inproc` installs
  // the InProcessBackend to exercise the backend seam.
  const auto measure_backend = args.option("measure-backend", "");
  const auto measure_workers =
      static_cast<std::size_t>(args.integer("workers", 4));
  const auto worker_bin = args.option("worker-bin", "");
  const double hedge_after_s = args.real("hedge-after-s", 0.25);
  const double hang_after_s = args.real("hang-after-s", 10.0);
  const auto degrade_after =
      static_cast<std::size_t>(args.integer("degrade-after", 3));
  args.finish();

  if (budget == 0) {
    std::cerr << "--budget must be >= 1\n" << args.usage_text();
    return 2;
  }
  if (gbt_bins < 2 || gbt_bins > static_cast<long>(ml::kMaxBins)) {
    std::cerr << "--gbt-bins must be in [2, " << ml::kMaxBins << "], got "
              << gbt_bins << "\n";
    return 2;
  }
  if (resume && checkpoint_dir.empty()) {
    std::cerr << "--resume requires --checkpoint DIR\n";
    return 2;
  }
  if (!checkpoint_dir.empty() && replications > 1) {
    std::cerr << "--checkpoint covers a single session; it cannot be "
                 "combined with --replications\n";
    return 2;
  }

  sim::Workload wl = tools::workload_by_name(wl_name);
  const auto& space = wl.workflow.joint_space();

  const tuner::MeasuredPool pool = [&] {
    try {
      return load_pool.empty()
                 ? tuner::measure_pool(wl.workflow, pool_size, pool_seed)
                 : tuner::load_pool_csv(space, load_pool);
    } catch (const PreconditionError& e) {
      std::cerr << "ceal_tune: " << e.what() << "\n";
      std::exit(2);
    }
  }();
  if (!save_pool.empty()) {
    tuner::save_pool_csv(pool, space, save_pool);
    std::cout << "pool saved to " << save_pool << " (" << pool.size()
              << " configurations)\n";
  }
  const auto comps =
      tuner::measure_components(wl.workflow, comp_samples, pool_seed + 1);

  tuner::TuningProblem problem{&wl, objective, &pool, &comps, history, {}};
  problem.measurement.faults.fail_prob = fault_rate;
  problem.measurement.faults.outlier_prob = outlier_rate;
  problem.measurement.faults.deadline_s = deadline;
  problem.measurement.max_attempts = std::max<std::size_t>(1, max_attempts);
  problem.measurement.faults.validate();

  // Performance knobs (all default to the pinned reproduction path: exact
  // trainer, cached pool featurization).
  problem.surrogate_gbt.tree.method = backend_by_name(gbt_backend);
  problem.surrogate_gbt.tree.max_bins = static_cast<std::size_t>(gbt_bins);
  problem.pool_chunk_rows = pool_chunk;

  // Observability: any of --trace / --verbose / --metrics-summary attaches
  // a Telemetry to the session. Tracing never writes to stdout, so seeded
  // runs print byte-identical reports with tracing on or off (the tier-1
  // gate checks this).
  std::unique_ptr<telemetry::JsonlTraceSink> file_sink;
  std::unique_ptr<telemetry::JsonlTraceSink> stderr_sink;
  if (!trace_path.empty()) {
    file_sink = std::make_unique<telemetry::JsonlTraceSink>(trace_path);
  }
  if (verbose) {
    stderr_sink = std::make_unique<telemetry::JsonlTraceSink>(std::cerr);
  }
  std::vector<telemetry::TraceSink*> fanout;
  if (file_sink) fanout.push_back(file_sink.get());
  if (stderr_sink) fanout.push_back(stderr_sink.get());
  std::optional<telemetry::MultiTraceSink> multi_sink;
  telemetry::TraceSink* sink = nullptr;
  if (fanout.size() == 1) {
    sink = fanout.front();
  } else if (fanout.size() > 1) {
    multi_sink.emplace(fanout);
    sink = &*multi_sink;
  }
  std::optional<telemetry::Telemetry> telemetry_store;
  std::optional<telemetry::FlightRecorder> flight_recorder;
  if (sink != nullptr || metrics_summary || flight_capacity > 0) {
    telemetry_store.emplace(sink);
    // Causal span ids derive from the session seed: two runs with the
    // same seed produce byte-identical traces once timing is stripped.
    telemetry_store->seed_trace(seed);
    if (flight_capacity > 0) {
      flight_recorder.emplace(flight_capacity);
      telemetry_store->set_flight_recorder(&*flight_recorder);
      telemetry::register_crash_recorder(&*flight_recorder, "session");
      telemetry::install_crash_dump_handler(flight_dump);
    }
    problem.telemetry = &*telemetry_store;
  }
  const auto finish_telemetry = [&] {
    if (!telemetry_store) return;
    telemetry_store->emit(telemetry_store->summary_event());
    if (telemetry_store->sink() != nullptr) telemetry_store->sink()->flush();
    if (metrics_summary) std::cout << telemetry_store->summary_table();
  };

  // Measurement backend (docs/RELIABILITY.md "Distributed measurement
  // plane"). Backends are dispatch strategies, never data sources, so
  // every choice here produces byte-identical sessions; subprocess adds
  // multi-process fan-out with hedging and graceful degradation.
  std::unique_ptr<measure::MeasureBackend> backend_store;
  if (measure_backend == "subprocess") {
    if (replications > 1) {
      std::cerr << "--measure-backend subprocess covers a single session; "
                   "it cannot be combined with --replications\n";
      return 2;
    }
    measure::SubprocessOptions mopts;
    mopts.workers = std::max<std::size_t>(1, measure_workers);
    mopts.worker_bin = worker_bin;
    mopts.hedge_after_s = hedge_after_s;
    mopts.hang_after_s = hang_after_s;
    mopts.degrade_after = std::max<std::size_t>(1, degrade_after);
    mopts.seed = seed;
    mopts.worker_args = {"--workflow", wl_name};
    if (load_pool.empty()) {
      mopts.worker_args.insert(
          mopts.worker_args.end(),
          {"--pool-size", std::to_string(pool_size), "--pool-seed",
           std::to_string(pool_seed)});
    } else {
      mopts.worker_args.insert(mopts.worker_args.end(),
                               {"--pool-file", load_pool});
    }
    backend_store = std::make_unique<measure::SubprocessBackend>(
        pool, std::move(mopts),
        telemetry_store ? &*telemetry_store : nullptr);
  } else if (measure_backend == "inproc") {
    backend_store = std::make_unique<measure::InProcessBackend>(pool);
  } else if (!measure_backend.empty()) {
    std::cerr << "unknown --measure-backend: " << measure_backend
              << " (expected inproc|subprocess)\n";
    return 2;
  }
  problem.measure = backend_store.get();

  if (replications > 1) {
    // Replications run on a pool when --threads is given; trace output is
    // byte-identical to the serial path (per-replication child telemetry,
    // merged in replication order — see tuner::evaluate).
    std::optional<ceal::ThreadPool> eval_pool;
    if (eval_threads > 0) eval_pool.emplace(eval_threads);
    const auto s =
        tuner::evaluate(problem, *algo, budget, replications, seed,
                        eval_pool ? &*eval_pool : nullptr);
    Table table({"metric", "value"});
    table.add_row({"algorithm", s.algorithm});
    table.add_row({"normalized performance", Table::num(s.mean_norm_perf)});
    table.add_row({"median normalized", Table::num(s.median_norm_perf)});
    table.add_row({"top-1 recall", Table::num(s.mean_recall[0], 1) + "%"});
    table.add_row({"top-3 recall", Table::num(s.mean_recall[2], 1) + "%"});
    table.add_row({"MdAPE top-2%", Table::num(s.mean_mdape_top2, 1) + "%"});
    table.add_row({"MdAPE all", Table::num(s.mean_mdape_all, 1) + "%"});
    table.add_row({"mean collection cost (s)",
                   Table::num(s.mean_cost_exec_s, 1)});
    table.add_row({"mean collection cost (ch)",
                   Table::num(s.mean_cost_comp_ch, 2)});
    table.add_row({"least number of uses",
                   std::isinf(s.least_uses) ? "inf"
                                            : Table::num(s.least_uses, 0)});
    table.add_row({"beats expert",
                   Table::num(100.0 * s.frac_beat_expert, 0) + "%"});
    if (!quiet) std::cout << table;
    finish_telemetry();
    return 0;
  }

  // Checkpointing: the session journal lives inside the checkpoint
  // directory. Resume re-executes the tuner from the same seed with
  // journaled measurements served for free, so the report on stdout is
  // byte-identical to an uninterrupted run (the kill-resume gate in
  // tools/run_tier1.sh diffs it); resume bookkeeping goes to stderr.
  std::optional<tuner::CheckpointSession> checkpoint;
  if (!checkpoint_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(checkpoint_dir, ec);
    const std::string journal_path =
        (std::filesystem::path(checkpoint_dir) / "journal.cealj").string();
    try {
      checkpoint.emplace(journal_path,
                         resume ? tuner::CheckpointSession::Mode::kResume
                                : tuner::CheckpointSession::Mode::kStart);
    } catch (const std::exception& e) {
      std::cerr << "ceal_tune: " << e.what() << "\n";
      return 2;
    }
  }

  Rng rng(seed);
  tuner::TuneResult result;
  try {
    result = algo->tune(problem, budget, rng,
                        checkpoint ? &*checkpoint : nullptr);
  } catch (const tuner::CheckpointError& e) {
    std::cerr << "ceal_tune: " << e.what() << "\n";
    return 2;
  } catch (const JournalError& e) {
    std::cerr << "ceal_tune: " << e.what() << "\n";
    return 2;
  }
  if (checkpoint && resume) {
    std::cerr << "resumed session: " << checkpoint->replayed_runs()
              << " measurements replayed from the journal, "
              << checkpoint->appended_records() << " records appended\n";
  }
  const auto& best = pool.configs[result.best_predicted_index];
  const auto perf = wl.workflow.expected(best);

  if (!quiet) {
    std::cout << algo->name() << " on " << wl.workflow.name() << " ("
              << tuner::objective_name(objective) << ", budget " << budget
              << (history ? ", with histories" : "") << ")\n";
    std::cout << "  measured " << result.measured_indices.size()
              << " workflow configurations, " << result.runs_used
              << " budget units used\n";
    if (problem.measurement.faults.enabled()) {
      std::size_t censored = 0;
      for (const auto st : result.measured_statuses) {
        if (st == sim::RunStatus::kCensored) ++censored;
      }
      std::cout << "  faults: " << result.failed_runs << " failed, "
                << censored << " censored attempts (fault-rate " << fault_rate
                << ", max-attempts " << problem.measurement.max_attempts
                << ")\n";
    }
    std::cout << "  recommendation: " << config::to_string(best) << "\n";
    std::cout << "  expected: " << Table::num(perf.exec_s, 2) << " s on "
              << perf.nodes << " nodes = " << Table::num(perf.comp_ch, 3)
              << " core-hours per run\n";
    const auto& expert = objective == tuner::Objective::kExecTime
                             ? wl.expert_exec
                             : wl.expert_comp;
    std::cout << "  expert config: "
              << Table::num(tuner::metric(wl.workflow.expected(expert),
                                          objective),
                            3)
              << (objective == tuner::Objective::kExecTime ? " s"
                                                           : " core-hours")
              << "\n";
  }

  if (explain) {
    const auto bd = wl.workflow.explain(best);
    Table table({"component", "procs", "nodes", "compute (s)",
                 "staging (s)", "transfer (s)", "period (s)", ""});
    for (const auto& c : bd.components) {
      table.add_row({c.name, std::to_string(c.procs),
                     std::to_string(c.nodes),
                     Table::num(c.step_compute_s, 4),
                     Table::num(c.staging_s, 4),
                     Table::num(c.transfer_exposed_s, 4),
                     Table::num(c.period_s, 4),
                     c.bottleneck ? "<- bottleneck" : ""});
    }
    std::cout << "\n" << table;
    std::cout << "contention x" << Table::num(bd.contention_factor, 3)
              << ", synchronised step " << Table::num(bd.step_s, 4)
              << " s, startup " << Table::num(bd.startup_s, 1) << " s\n";
  }

  if (!save_model.empty()) {
    // Fit a log-time GBT on everything the session measured and persist
    // it (predictions are exp() of the model output).
    ml::Dataset data(space.dimension());
    for (const std::size_t i : result.measured_indices) {
      data.add(space.features(pool.configs[i]),
               std::log(pool.measured(objective)[i]));
    }
    ml::GradientBoostedTrees model(problem.surrogate_gbt);
    Rng model_rng(seed + 1);
    model.fit(data, model_rng);
    ml::save_gbt_file(model, save_model, space.dimension());
    std::cout << "surrogate (log-time GBT) saved to " << save_model << "\n";
  }

  if (!save_result.empty()) {
    // Exact result artifact (tuner/result_io.h): two sessions produced
    // identical TuneResults iff these files are byte-identical.
    tuner::save_result_csv(save_result, result, algo->name(),
                           wl.workflow.name(),
                           tuner::objective_name(objective), budget, seed);
  }
  finish_telemetry();
  return 0;
}
