// Evaluation harness implementing the paper's three metric families
// (§7.2): performance of the best predicted configuration, robustness
// (recall scores), and practicality (least number of uses), plus the
// MdAPE analysis of §7.4.2. Each algorithm is run `replications` times
// with independent seeds and the metrics are averaged (the paper uses
// 100 runs).
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "tuner/autotuner.h"

namespace ceal::tuner {

inline constexpr std::size_t kRecallDepth = 10;

struct EvalSummary {
  std::string algorithm;
  std::string workload;
  Objective objective = Objective::kExecTime;
  std::size_t budget = 0;
  std::size_t replications = 0;

  /// Actual (noise-free) objective value of the predicted-best
  /// configuration, normalised by the best value in the pool; 1.0 means
  /// the tuner found the pool optimum every time.
  double mean_norm_perf = 0.0;
  double median_norm_perf = 0.0;

  /// Mean recall score (percent) for top n = 1..kRecallDepth.
  std::array<double, kRecallDepth> mean_recall{};

  /// Median absolute percentage error of the final surrogate over all
  /// pool configurations, and over the top 2% (by measurement).
  double mean_mdape_all = 0.0;
  double mean_mdape_top2 = 0.0;

  /// Mean data-collection cost.
  double mean_cost_exec_s = 0.0;
  double mean_cost_comp_ch = 0.0;
  double mean_runs_used = 0.0;

  /// Mean per-run improvement over the expert recommendation, in the
  /// objective's unit (Δp of §7.2.3; negative = worse than expert).
  double mean_improvement = 0.0;
  /// Least number of workflow uses to recoup the tuning cost:
  /// mean collection cost / mean improvement. +inf when the algorithm
  /// does not beat the expert on average.
  double least_uses = 0.0;
  /// Fraction of replications whose recommendation beat the expert.
  double frac_beat_expert = 0.0;
};

/// Runs `algorithm` `replications` times on `problem` with the given
/// budget and aggregates the metrics. Replications run in parallel on
/// the global pool (core/parallel.h; CEAL_THREADS=1 runs them serially);
/// results and stripped traces are bitwise identical for any worker
/// count. When `problem.measure` or `problem.checkpoint` is set they run
/// serially on the calling thread, because those hooks take calls from
/// one thread only.
EvalSummary evaluate(const TuningProblem& problem, const AutoTuner& algorithm,
                     std::size_t budget, std::size_t replications,
                     std::uint64_t seed);

}  // namespace ceal::tuner
