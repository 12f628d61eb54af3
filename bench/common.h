// Shared environment for the paper-reproduction bench binaries: the three
// workflows, their 2000-configuration measured pools (§7.1), the
// 500-sample component measurement sets, and a pre-built GEIST pool graph
// per workflow.
//
// Replication count defaults to 40 and can be raised to the paper's 100
// via the CEAL_REPS environment variable (all binaries honour it).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/workloads.h"
#include "tuner/evaluation.h"
#include "tuner/geist.h"
#include "tuner/measured_pool.h"

namespace ceal::bench {

inline constexpr std::size_t kPoolSize = 2000;
inline constexpr std::size_t kComponentSamples = 500;
inline constexpr std::uint64_t kPoolSeed = 20211114;  // SC'21 opening day
inline constexpr std::uint64_t kComponentSeed = 20211119;
inline constexpr std::uint64_t kEvalSeed = 42;

class Env {
 public:
  /// Builds (once) and returns the shared environment.
  static const Env& instance();

  std::size_t workload_count() const { return workloads_.size(); }
  const sim::Workload& workload(std::size_t i) const;
  const tuner::MeasuredPool& pool(std::size_t i) const;
  const std::vector<tuner::ComponentSamples>& components(std::size_t i) const;
  std::shared_ptr<const tuner::PoolGraph> graph(std::size_t i) const;

  /// Index by paper name: "LV", "HS", "GP".
  std::size_t index_of(const std::string& name) const;

  tuner::TuningProblem problem(std::size_t i, tuner::Objective objective,
                               bool history) const;

  /// Replications per experiment (CEAL_REPS env var, default 40).
  static std::size_t replications();

 private:
  Env();

  std::vector<sim::Workload> workloads_;
  std::vector<tuner::MeasuredPool> pools_;
  std::vector<std::vector<tuner::ComponentSamples>> components_;
  std::vector<std::shared_ptr<const tuner::PoolGraph>> graphs_;
};

/// "1.234" style normalised value or "inf".
std::string fmt(double v, int precision = 3);

/// Runs one experiment cell: the registered tuner `name` (GEIST shares
/// the pre-built pool graph of workload `w`) on workload `w` under
/// `objective` with `budget` training samples, averaged over
/// replications().
tuner::EvalSummary run_cell(const Env& env, const std::string& name,
                            std::size_t w, tuner::Objective objective,
                            std::size_t budget, bool history);

/// Writes `header` and the bench name banner to stdout.
void banner(const std::string& title, const std::string& paper_ref);

// --- Standardised BENCH_*.json output for the bench_micro_* targets. ---

/// argv for a google-benchmark main with `--benchmark_out=<default_json>
/// --benchmark_out_format=json` injected unless the caller passed their
/// own --benchmark_out flags. `json_path` is the file the run will write
/// ("" when the caller overrode the output).
struct BenchArgs {
  std::vector<char*> argv;
  int argc = 0;
  std::string json_path;
};
BenchArgs make_bench_args(int argc, char** argv,
                          const std::string& default_json);

/// Rewrites a google-benchmark JSON output file in place, inserting a
/// top-level "ceal" metadata object: git describe, build type, global
/// thread-pool width, peak RSS, and a UTC timestamp — the common header
/// ceal_report expects on every BENCH_*.json (docs/PERFORMANCE.md).
/// Non-finite counters (google-benchmark's bare NaN/Infinity tokens,
/// e.g. the `_cv` of an all-zero counter) are dropped, so the rewritten
/// file is strict JSON. Throws PreconditionError when the file is
/// missing or otherwise malformed.
void annotate_bench_json(const std::string& path);

/// Peak resident set size of this process in MiB (getrusage ru_maxrss),
/// or 0 when the platform does not report it. A high-water mark: it
/// never decreases, so sample it after the workload of interest.
double peak_rss_mb();

}  // namespace ceal::bench
