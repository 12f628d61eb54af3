#include "bench/common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <iterator>
#include <sstream>
#include <string_view>

#include "core/error.h"
#include "core/json.h"
#include "core/parallel.h"
#include "core/table.h"
#include "tuner/session_spec.h"

namespace ceal::bench {

Env::Env() {
  workloads_ = sim::make_all_workloads();
  pools_.reserve(workloads_.size());
  components_.reserve(workloads_.size());
  graphs_.reserve(workloads_.size());
  for (const auto& wl : workloads_) {
    pools_.push_back(
        tuner::measure_pool(wl.workflow, kPoolSize, kPoolSeed));
    components_.push_back(tuner::measure_components(
        wl.workflow, kComponentSamples, kComponentSeed));
    graphs_.push_back(std::make_shared<const tuner::PoolGraph>(
        wl.workflow.joint_space(), pools_.back().configs,
        /*k_neighbors=*/10));
  }
}

const Env& Env::instance() {
  static Env env;
  return env;
}

const sim::Workload& Env::workload(std::size_t i) const {
  CEAL_EXPECT(i < workloads_.size());
  return workloads_[i];
}

const tuner::MeasuredPool& Env::pool(std::size_t i) const {
  CEAL_EXPECT(i < pools_.size());
  return pools_[i];
}

const std::vector<tuner::ComponentSamples>& Env::components(
    std::size_t i) const {
  CEAL_EXPECT(i < components_.size());
  return components_[i];
}

std::shared_ptr<const tuner::PoolGraph> Env::graph(std::size_t i) const {
  CEAL_EXPECT(i < graphs_.size());
  return graphs_[i];
}

std::size_t Env::index_of(const std::string& name) const {
  for (std::size_t i = 0; i < workloads_.size(); ++i) {
    if (workloads_[i].workflow.name() == name) return i;
  }
  throw PreconditionError("unknown workload " + name);
}

tuner::TuningProblem Env::problem(std::size_t i, tuner::Objective objective,
                                  bool history) const {
  return tuner::TuningProblem{&workload(i), objective, &pool(i),
                              &components(i), history, {}};
}

std::size_t Env::replications() {
  if (const char* env = std::getenv("CEAL_REPS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<std::size_t>(v);
  }
  return 40;
}

tuner::EvalSummary run_cell(const Env& env, const std::string& name,
                            std::size_t w, tuner::Objective objective,
                            std::size_t budget, bool history) {
  const auto algo = tuner::algorithm_by_name(name, env.graph(w));
  const auto prob = env.problem(w, objective, history);
  return tuner::evaluate(prob, *algo, budget, Env::replications(),
                         kEvalSeed);
}

std::string fmt(double v, int precision) {
  if (std::isinf(v)) return "inf";
  return Table::num(v, precision);
}

BenchArgs make_bench_args(int argc, char** argv,
                          const std::string& default_json) {
  BenchArgs out;
  out.argv.assign(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).starts_with("--benchmark_out")) {
      has_out = true;
    }
  }
  if (!has_out) {
    // Function-local statics so the argv pointers stay valid however the
    // returned struct is copied or moved (one call per process).
    static std::string out_flag, fmt_flag;
    out_flag = "--benchmark_out=" + default_json;
    fmt_flag = "--benchmark_out_format=json";
    out.argv.push_back(out_flag.data());
    out.argv.push_back(fmt_flag.data());
    out.json_path = default_json;
  }
  out.argc = static_cast<int>(out.argv.size());
  return out;
}

namespace {

/// `git describe --always --dirty`, or "unknown" outside a repo.
std::string git_describe() {
  FILE* pipe = popen("git describe --always --dirty 2>/dev/null", "r");
  if (pipe == nullptr) return "unknown";
  std::string out;
  char buf[128];
  while (fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
  pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out.empty() ? "unknown" : out;
}

std::string utc_timestamp() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// google-benchmark writes a non-finite counter as a bare NaN or
/// Infinity token, which is not JSON: the `_cv` aggregate of a counter
/// that is zero in every repetition is 0/0. Rewrites each such token
/// outside strings to `null` so the strict parser accepts the text.
std::string nonfinite_to_null(std::string_view text) {
  static constexpr std::string_view kTokens[] = {"-Infinity", "Infinity",
                                                 "-NaN", "NaN"};
  std::string out;
  out.reserve(text.size());
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      out += c;
      if (c == '\\' && i + 1 < text.size()) {
        out += text[++i];
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    const auto token =
        std::find_if(std::begin(kTokens), std::end(kTokens),
                     [&](std::string_view t) {
                       return text.substr(i).starts_with(t);
                     });
    if (token == std::end(kTokens)) {
      out += c;
    } else {
      out += "null";
      i += token->size() - 1;
    }
  }
  return out;
}

}  // namespace

void annotate_bench_json(const std::string& path) {
  std::ifstream in(path);
  CEAL_EXPECT_MSG(in.good(), "cannot open bench output '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  in.close();
  json::Value root = json::Value::parse(nonfinite_to_null(buffer.str()));
  CEAL_EXPECT_MSG(root.is_object() && root.contains("benchmarks") &&
                      root.at("benchmarks").is_array(),
                  "'" + path + "' is not a google-benchmark JSON file");

  // Drop the non-finite counters (now null; google-benchmark writes no
  // nulls of its own), so the rewritten file is plain JSON that
  // ceal_report's strict reader accepts.
  const json::Value& entries = root.at("benchmarks");
  json::Value benchmarks = json::Value::array();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    json::Value kept = json::Value::object();
    for (const auto& [key, value] : entries.at(i).members()) {
      if (!value.is_null()) kept.set(key, value);
    }
    benchmarks.push(std::move(kept));
  }
  root.set("benchmarks", std::move(benchmarks));

  json::Value meta = json::Value::object();
  meta.set("git_describe", json::Value::string(git_describe()));
#ifdef CEAL_BUILD_TYPE
  meta.set("build_type", json::Value::string(CEAL_BUILD_TYPE));
#else
  meta.set("build_type", json::Value::string("unknown"));
#endif
  meta.set("threads", json::Value::number(
                          static_cast<std::uint64_t>(global_thread_count())));
  meta.set("peak_rss_mb", json::Value::number(peak_rss_mb()));
  meta.set("timestamp", json::Value::string(utc_timestamp()));
  root.set("ceal", std::move(meta));

  std::ofstream out(path, std::ios::trunc);
  CEAL_EXPECT_MSG(out.good(), "cannot rewrite bench output '" + path + "'");
  root.write(out);
  out << '\n';
}

double peak_rss_mb() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
#ifdef __APPLE__
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#else
  // Linux reports ru_maxrss in kilobytes.
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
#endif
}

void banner(const std::string& title, const std::string& paper_ref) {
  std::cout << "==============================================\n"
            << title << "\n"
            << "(reproduces " << paper_ref << "; " << Env::replications()
            << " replications per point, CEAL_REPS overrides)\n"
            << "==============================================\n";
}

}  // namespace ceal::bench
