// ceal_e2e — one end-to-end benchmark of the CEAL tuner.
//
//   ceal_e2e --workload suite|history|large-pool|serve --seed N
//            --seconds S --trace 0|1 [--out-dir DIR]
//
// With --trace 0 it sets the workload up, measures it for S seconds with
// no tracing, checks its outputs, and prints every end-to-end metric.
// With --trace 1 it makes the traced run instead: an untraced and a
// traced pass over the same work (their difference is the tracing
// overhead, and their results must be identical), then single-layer
// probes at the workload's own shapes, and prints every per-layer
// metric. README.md in this directory gives the rationale and the map
// from layer metrics to end-to-end metrics.
//
// The last line of stdout is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"workload":..,"seed":..,
//    "metrics":{"<name>":{"value":..,"unit":".."},...}}
// Exit status: 0 on a correct run, 1 when an output check failed, 2 on a
// usage error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <thread>

#include "core/rng.h"
#include "run.h"

namespace perfbench {

void Run::check(bool ok, const std::string& what) {
  if (!ok) errors_.push_back(what);
}

void Run::metric(std::string name, double value, std::string unit,
                 std::string note) {
  metrics_.push_back(
      Metric{std::move(name), value, std::move(unit), std::move(note)});
}

std::uint64_t Run::derive(std::uint64_t stream) const {
  std::uint64_t state = options.seed ^ (stream * 0x9e3779b97f4a7c15ULL);
  return ceal::splitmix64_next(state);
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every end-to-end metric, printed by every untraced run.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},        {"sessions_per_s", "1/s"},
    {"session_p50_s", "s"},  {"session_tail_s", "s"},
    {"steps_per_s", "1/s"},  {"step_p50_ms", "ms"},
    {"step_tail_ms", "ms"},  {"norm_perf", "ratio"},
    {"peak_rss_mb", "MiB"},
};

// Every per-layer metric, printed by every traced run; a layer the
// workload does not exercise reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"sim.pool_s", "s"},
    {"sim.pool_rows_per_s", "1/s"},
    {"sim.components_s", "s"},
    {"tuner.geist_graph_s", "s"},
    {"tuner.featurize_s", "s"},
    {"tuner.evaluate_cell_s", "s"},
    {"core.cpu_busy_frac", "ratio"},
    {"tuner.step_p50_ms", "ms"},
    {"tuner.step_tail_ms", "ms"},
    {"tuner.steps_per_session", "count"},
    {"ml.component_fit_ms", "ms"},
    {"ml.surrogate_fit_ms", "ms"},
    {"tuner.score_rows_per_s", "1/s"},
    {"tuner.lowfi_rows_per_s", "1/s"},
    {"tuner.topk_ms", "ms"},
    {"serve.create_p50_ms", "ms"},
    {"serve.service_p50_ms", "ms"},
    {"serve.wait_p50_ms", "ms"},
    {"serve.journal_ms_per_step", "ms"},
    {"serve.gen_late_ms", "ms"},
    {"sim.pool.self_s", "s"},
    {"sim.components.self_s", "s"},
    {"tuner.geist_graph.self_s", "s"},
    {"tuner.featurize.self_s", "s"},
    {"tuner.evaluate.self_s", "s"},
    {"tuner.make_stepper.self_s", "s"},
    {"tuner.step.self_s", "s"},
    {"serve.create.self_s", "s"},
    {"serve.stream.self_s", "s"},
    {"serve.handle_line.self_s", "s"},
    {"probe.self_s", "s"},
    {"check.self_s", "s"},
    {"unattributed", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "ceal_e2e: " << why << "\n"
            << "usage: ceal_e2e --workload suite|history|large-pool|serve "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n";
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options opts;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + std::string(flag));
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || value[0] == '-') {
        usage("--seed must be a non-negative integer");
      }
      have_seed = true;
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(opts.seconds > 0.0) ||
          opts.seconds > 3600.0) {
        usage("--seconds must be in (0, 3600]");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      opts.trace = value == "1";
      have_trace = true;
    } else if (flag == "--out-dir") {
      opts.out_dir = value;
    } else {
      usage("unknown flag " + std::string(flag));
    }
  }
  if (opts.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return opts;
}

void print_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Clock::time_point process_start = Clock::now();
  Run run(parse_options(argc, argv), process_start);
  const Options& opts = run.options;

  const std::map<std::string, void (*)(Run&)> workloads = {
      {"suite", run_suite},
      {"history", run_history},
      {"large-pool", run_large_pool},
      {"serve", run_serve},
  };
  const auto it = workloads.find(opts.workload);
  if (it == workloads.end()) usage("unknown workload " + opts.workload);

  std::error_code ec;
  std::filesystem::create_directories(opts.out_dir, ec);
  std::cout << "ceal_e2e workload=" << opts.workload << " seed=" << opts.seed
            << " seconds=" << opts.seconds << " trace=" << opts.trace
            << " build=" << CEAL_E2E_BUILD_TYPE
            << " compiler=\"" << CEAL_E2E_COMPILER << "\" nproc="
            << std::thread::hardware_concurrency() << "\n";
  try {
    it->second(run);
  } catch (const std::exception& e) {
    run.check(false, std::string("workload threw: ") + e.what());
  }

  // Select the metrics of this run's mode, in canonical order.
  std::map<std::string, const Metric*> recorded;
  for (const Metric& m : run.metrics()) recorded[m.name] = &m;
  std::vector<Metric> printed;
  const auto select = [&](const auto& specs, bool required) {
    for (const MetricSpec& spec : specs) {
      const auto found = recorded.find(spec.name);
      if (found == recorded.end()) {
        run.check(!required, std::string("metric not measured: ") + spec.name);
        printed.push_back(Metric{spec.name, 0.0, spec.unit, "not exercised"});
        continue;
      }
      run.check(found->second->unit == spec.unit,
                std::string("unit mismatch for ") + spec.name);
      run.check(std::isfinite(found->second->value),
                std::string("non-finite value for ") + spec.name);
      printed.push_back(*found->second);
    }
  };
  if (opts.trace) {
    select(kPerLayer, false);
  } else {
    select(kEndToEnd, true);
  }

  for (const Metric& m : printed) {
    std::printf("%-28s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  // Metrics of the other mode that this run measured anyway.
  for (const Metric& m : run.metrics()) {
    const bool shown = std::any_of(printed.begin(), printed.end(),
                                   [&](const Metric& p) { return p.name == m.name; });
    if (!shown) {
      std::printf("  (also) %-19s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
  }
  for (const std::string& e : run.errors()) {
    std::cout << "CHECK FAILED: " << e << "\n";
  }
  const bool correct = run.errors().empty();
  std::cout << "{\"correct\":" << (correct ? "true" : "false")
            << ",\"attempted\":" << run.attempted
            << ",\"failed\":" << run.failed << ",\"workload\":";
  print_json_string(std::cout, opts.workload);
  std::cout << ",\"seed\":" << opts.seed << ",\"metrics\":{";
  for (std::size_t i = 0; i < printed.size(); ++i) {
    char value[64];
    const double v = std::isfinite(printed[i].value) ? printed[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    std::cout << (i == 0 ? "" : ",");
    print_json_string(std::cout, printed[i].name);
    std::cout << ":{\"value\":" << value << ",\"unit\":";
    print_json_string(std::cout, printed[i].unit);
    std::cout << "}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
