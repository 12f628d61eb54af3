#include "tuner/evaluation.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "core/error.h"
#include "core/parallel.h"
#include "core/stats.h"
#include "core/telemetry.h"
#include "ml/metrics.h"

namespace ceal::tuner {

namespace {

struct RepOutcome {
  double norm_perf = 0.0;
  std::array<double, kRecallDepth> recall{};
  double mdape_all = 0.0;
  double mdape_top2 = 0.0;
  double cost_exec_s = 0.0;
  double cost_comp_ch = 0.0;
  double runs_used = 0.0;
  double improvement = 0.0;
};

}  // namespace

EvalSummary evaluate(const TuningProblem& problem, const AutoTuner& algorithm,
                     std::size_t budget, std::size_t replications,
                     std::uint64_t seed) {
  CEAL_EXPECT(replications >= 1);
  CEAL_EXPECT(problem.workload != nullptr && problem.pool != nullptr);

  const auto& workflow = problem.workload->workflow;
  const auto& measured = problem.pool->measured(problem.objective);
  const auto& truth = problem.pool->truth(problem.objective);
  const double best_truth =
      truth[problem.pool->best_truth_index(problem.objective)];

  const config::Configuration& expert =
      problem.objective == Objective::kExecTime
          ? problem.workload->expert_exec
          : problem.workload->expert_comp;
  const double expert_truth =
      metric(workflow.expected(expert), problem.objective);

  // Indices of the top-2% pool configurations by measurement, for the
  // MdAPE split of Fig. 6.
  const std::size_t top2_count = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround(0.02 * static_cast<double>(measured.size()))));
  const auto top2 = smallest_k(measured, top2_count);

  // Replications with telemetry attached: each replication runs against
  // its own child Telemetry (backed by a BufferTraceSink when the parent
  // traces), so concurrent tuners never interleave events. The children
  // are merged into the parent in replication order afterwards, which
  // re-stamps sequence numbers and reproduces the exact event stream of
  // a serial run — stripped traces compare byte-identical
  // (tests/tuner/test_trace.cc). The serial path (one pool worker, or a
  // single-caller hook below) uses children too: every replication's
  // causal spans then draw ids from the same strand-indexed namespaces
  // (Telemetry::adopt_trace), so the span tree is byte-identical across
  // 1 vs N workers, not just event-order identical.
  const bool child_tracing = problem.telemetry != nullptr;
  telemetry::ScopedSpan eval_span(problem.telemetry, "evaluate");
  std::vector<std::unique_ptr<telemetry::BufferTraceSink>> buffers;
  std::vector<std::unique_ptr<telemetry::Telemetry>> children;
  std::vector<TuningProblem> rep_problems;
  if (child_tracing) {
    const bool tracing = problem.telemetry->tracing();
    buffers.reserve(replications);
    children.reserve(replications);
    rep_problems.assign(replications, problem);
    for (std::size_t rep = 0; rep < replications; ++rep) {
      buffers.push_back(std::make_unique<telemetry::BufferTraceSink>());
      children.push_back(std::make_unique<telemetry::Telemetry>(
          tracing ? buffers.back().get() : nullptr));
      children.back()->adopt_trace(eval_span.context(), rep + 1);
      rep_problems[rep].telemetry = children[rep].get();
    }
  }

  std::vector<RepOutcome> outcomes(replications);
  const auto run_one = [&](std::size_t rep) {
    const TuningProblem& rep_problem =
        child_tracing ? rep_problems[rep] : problem;
    telemetry::Telemetry* tel = rep_problem.telemetry;
    if (tel != nullptr) tel->count("evaluate.replications");
    // The unit the pool schedules; emitted in serial runs too so the
    // span tree does not depend on the execution mode.
    telemetry::ScopedSpan task_span(tel, "pool.task");
    telemetry::ScopedSpan rep_span(tel, "evaluate.replication");
    ceal::Rng rng(seed * 0x9e3779b97f4a7c15ULL + rep * 0xda942042e4dd58b5ULL +
                  1);
    const TuneResult result = algorithm.tune(rep_problem, budget, rng);

    RepOutcome& out = outcomes[rep];
    out.norm_perf = truth[result.best_predicted_index] / best_truth;
    for (std::size_t n = 1; n <= kRecallDepth; ++n) {
      out.recall[n - 1] =
          ml::recall_score_percent(n, result.model_scores, measured);
    }
    out.mdape_all = ceal::mdape_percent(measured, result.model_scores);
    std::vector<double> top_actual(top2.size()), top_pred(top2.size());
    for (std::size_t t = 0; t < top2.size(); ++t) {
      top_actual[t] = measured[top2[t]];
      top_pred[t] = result.model_scores[top2[t]];
    }
    out.mdape_top2 = ceal::mdape_percent(top_actual, top_pred);
    out.cost_exec_s = result.cost_exec_s;
    out.cost_comp_ch = result.cost_comp_ch;
    out.runs_used = static_cast<double>(result.runs_used);
    out.improvement = expert_truth - truth[result.best_predicted_index];
  };

  // Measurement backends and checkpoint sessions take calls from one
  // thread only (measure/subprocess.h, tuner/checkpoint.h).
  if (problem.measure != nullptr || problem.checkpoint != nullptr) {
    for (std::size_t rep = 0; rep < replications; ++rep) run_one(rep);
  } else {
    ceal::parallel_apply(0, replications, run_one);
  }
  if (child_tracing) {
    for (std::size_t rep = 0; rep < replications; ++rep) {
      problem.telemetry->merge(*children[rep], buffers[rep]->events());
    }
  }

  EvalSummary summary;
  summary.algorithm = algorithm.name();
  summary.workload = workflow.name();
  summary.objective = problem.objective;
  summary.budget = budget;
  summary.replications = replications;

  std::vector<double> norms(replications);
  for (std::size_t r = 0; r < replications; ++r) {
    const RepOutcome& o = outcomes[r];
    norms[r] = o.norm_perf;
    summary.mean_norm_perf += o.norm_perf;
    for (std::size_t n = 0; n < kRecallDepth; ++n) {
      summary.mean_recall[n] += o.recall[n];
    }
    summary.mean_mdape_all += o.mdape_all;
    summary.mean_mdape_top2 += o.mdape_top2;
    summary.mean_cost_exec_s += o.cost_exec_s;
    summary.mean_cost_comp_ch += o.cost_comp_ch;
    summary.mean_runs_used += o.runs_used;
    summary.mean_improvement += o.improvement;
    if (o.improvement > 0.0) summary.frac_beat_expert += 1.0;
  }
  const double inv = 1.0 / static_cast<double>(replications);
  summary.mean_norm_perf *= inv;
  for (auto& r : summary.mean_recall) r *= inv;
  summary.mean_mdape_all *= inv;
  summary.mean_mdape_top2 *= inv;
  summary.mean_cost_exec_s *= inv;
  summary.mean_cost_comp_ch *= inv;
  summary.mean_runs_used *= inv;
  summary.mean_improvement *= inv;
  summary.frac_beat_expert *= inv;
  summary.median_norm_perf = ceal::median(norms);

  const double mean_cost = problem.objective == Objective::kExecTime
                               ? summary.mean_cost_exec_s
                               : summary.mean_cost_comp_ch;
  summary.least_uses = summary.mean_improvement > 0.0
                           ? mean_cost / summary.mean_improvement
                           : std::numeric_limits<double>::infinity();
  return summary;
}

}  // namespace ceal::tuner
