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
#include "core/parallel.h"
#include "core/table.h"
#include "core/telemetry.h"
#include "measure/backend.h"
#include "measure/subprocess.h"
#include "ml/gbt.h"
#include "ml/serialize.h"
#include "tools/args.h"
#include "tuner/checkpoint.h"
#include "tuner/evaluation.h"
#include "tuner/measured_pool.h"
#include "tuner/pool_io.h"
#include "tuner/result_io.h"
#include "tuner/session_spec.h"

namespace {

constexpr const char* kUsage =
    "--workflow LV|HS|GP --objective exec|comp --budget N\n"
    "\n"
    "tuning:\n"
    "  [--algorithm CEAL|AL|RS|GEIST|ALpH|BO|BO-CEAL]  (default CEAL)\n"
    "  [--history]              treat component samples as free history\n"
    "  [--replications N]       N>1: evaluate instead of one session\n"
    "  [--threads N]            worker threads for replications and batch\n"
    "                           loops (default: CEAL_THREADS, else all\n"
    "                           cores; 1 runs serially)\n"
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
    "                           (default 256)";

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

  // The session knobs; every default is the spec's.
  tuner::SessionSpec spec;
  spec.workflow = args.required("workflow");
  spec.objective = args.required("objective");
  spec.budget = args.integer("budget", spec.budget);
  spec.algorithm = args.option("algorithm", spec.algorithm);
  spec.history = args.flag("history");
  const std::size_t replications = args.integer("replications", 1);
  const std::size_t threads = args.integer("threads", 0);
  spec.pool_size = args.integer("pool-size", spec.pool_size);
  spec.component_samples =
      args.integer("component-samples", spec.component_samples);
  spec.pool_seed = args.integer("pool-seed", spec.pool_seed);
  spec.seed = args.integer("seed", spec.seed);
  const auto load_pool = args.option("load-pool", "");
  const auto save_pool = args.option("save-pool", "");
  const auto save_model = args.option("save-model", "");
  const bool explain = args.flag("explain");
  spec.fault_rate = args.real("fault-rate", spec.fault_rate);
  spec.outlier_rate = args.real("outlier-rate", spec.outlier_rate);
  spec.deadline_s = args.real("deadline", spec.deadline_s);
  spec.max_attempts = args.integer("max-attempts", spec.max_attempts);
  const auto checkpoint_dir = args.option("checkpoint", "");
  const bool resume = args.flag("resume");
  const auto save_result = args.option("save-result", "");
  const auto trace_path = args.option("trace", "");
  const std::size_t flight_capacity = args.integer("flight-recorder", 0);
  const auto flight_dump = args.option("flight-dump",
                                       "ceal_tune.flight.jsonl");
  const bool metrics_summary = args.flag("metrics-summary");
  const bool quiet = args.flag("quiet");
  const bool verbose = args.flag("verbose");
  const auto gbt_backend = args.option("gbt-backend", "exact");
  const std::size_t gbt_bins = args.integer("gbt-bins", 256);
  // Empty means "not given": the default path keeps problem.measure
  // null (the paper's inline collector); an explicit `inproc` installs
  // the InProcessBackend to exercise the backend seam.
  const auto measure_backend = args.option("measure-backend", "");
  measure::SubprocessOptions subprocess;
  subprocess.workers = args.integer("workers", subprocess.workers);
  subprocess.worker_bin = args.option("worker-bin", subprocess.worker_bin);
  subprocess.hedge_after_s =
      args.real("hedge-after-s", subprocess.hedge_after_s);
  subprocess.hang_after_s = args.real("hang-after-s", subprocess.hang_after_s);
  subprocess.degrade_after =
      args.integer("degrade-after", subprocess.degrade_after);
  args.finish();

  const measure::BackendKind backend_kind = args.or_exit([&] {
    spec.validate();
    return measure::backend_kind(measure_backend);
  });
  if (gbt_bins < 2 || gbt_bins > ml::kMaxBins) {
    std::cerr << "--gbt-bins must be in [2, " << ml::kMaxBins << "], got "
              << gbt_bins << "\n";
    return 2;
  }
  if (threads > 0) ceal::set_global_thread_pool_threads(threads);
  if (resume && checkpoint_dir.empty()) {
    std::cerr << "--resume requires --checkpoint DIR\n";
    return 2;
  }
  if (!checkpoint_dir.empty() && replications > 1) {
    std::cerr << "--checkpoint covers a single session; it cannot be "
                 "combined with --replications\n";
    return 2;
  }
  if (backend_kind == measure::BackendKind::kSubprocess && replications > 1) {
    std::cerr << "--measure-backend subprocess covers a single session; "
                 "it cannot be combined with --replications\n";
    return 2;
  }

  const sim::Workload wl = tuner::workload_by_name(spec.workflow);
  const auto& space = wl.workflow.joint_space();
  const auto algo = tuner::algorithm_by_name(spec.algorithm);

  const tuner::MeasuredPool pool = args.or_exit([&] {
    return load_pool.empty() ? tuner::measure_pool(wl.workflow, spec.pool_size,
                                                   spec.pool_seed)
                             : tuner::load_pool_csv(space, load_pool);
  });
  if (!save_pool.empty()) {
    tuner::save_pool_csv(pool, space, save_pool);
    std::cout << "pool saved to " << save_pool << " (" << pool.size()
              << " configurations)\n";
  }
  const auto comps = tuner::measure_components(
      wl.workflow, spec.component_samples, spec.component_seed());

  tuner::TuningProblem problem = tuner::make_problem(spec, wl, pool, comps);
  const tuner::Objective objective = problem.objective;

  // Performance knobs (both default to the pinned reproduction path: the
  // exact trainer).
  problem.surrogate_gbt.tree.method = backend_by_name(gbt_backend);
  problem.surrogate_gbt.tree.max_bins = gbt_bins;

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
    telemetry_store->seed_trace(spec.seed);
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
  const std::unique_ptr<measure::MeasureBackend> backend_store =
      measure::make_backend(backend_kind, pool, std::move(subprocess), spec,
                            load_pool,
                            telemetry_store ? &*telemetry_store : nullptr);
  problem.measure = backend_store.get();

  if (replications > 1) {
    // Replications run on the global pool; trace output is byte-identical
    // for any worker count (per-replication child telemetry, merged in
    // replication order — see tuner::evaluate).
    const auto s =
        tuner::evaluate(problem, *algo, spec.budget, replications, spec.seed);
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

  Rng rng(spec.seed);
  tuner::TuneResult result;
  try {
    result = algo->tune(problem, spec.budget, rng,
                        checkpoint ? &*checkpoint : nullptr);
  } catch (const tuner::CheckpointError& e) {
    std::cerr << "ceal_tune: " << e.what() << "\n";
    return 2;
  } catch (const PreconditionError& e) {
    // E.g. a budget too small for the algorithm's component rounds.
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
              << tuner::objective_name(objective) << ", budget "
              << spec.budget << (spec.history ? ", with histories" : "")
              << ")\n";
    std::cout << "  measured " << result.measured_indices.size()
              << " workflow configurations, " << result.runs_used
              << " budget units used\n";
    if (problem.measurement.faults.enabled()) {
      std::size_t censored = 0;
      for (const auto st : result.measured_statuses) {
        if (st == sim::RunStatus::kCensored) ++censored;
      }
      std::cout << "  faults: " << result.failed_runs << " failed, "
                << censored << " censored attempts (fault-rate "
                << spec.fault_rate
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
    // Fit a log-time GBT on every value the session observed and persist
    // it (predictions are exp() of the model output). Failed and
    // censored attempts observed no value, so they are left out.
    ml::Dataset data(space.dimension());
    for (std::size_t k = 0; k < result.measured_indices.size(); ++k) {
      if (result.measured_statuses[k] != sim::RunStatus::kOk) continue;
      const std::size_t i = result.measured_indices[k];
      data.add(space.features(pool.configs[i]),
               std::log(pool.measured(objective)[i]));
    }
    ml::GradientBoostedTrees model(problem.surrogate_gbt);
    Rng model_rng(spec.seed + 1);
    model.fit(data, model_rng);
    ml::save_gbt_file(model, save_model, space.dimension());
    std::cout << "surrogate (log-time GBT) saved to " << save_model << "\n";
  }

  if (!save_result.empty()) {
    // Exact result artifact (tuner/result_io.h): two sessions produced
    // identical TuneResults iff these files are byte-identical.
    tuner::save_result_csv(save_result, result, spec);
  }
  finish_telemetry();
  return 0;
}
