// Differential oracle for CEAL: Algorithm 1 of the paper transcribed
// literally, held bitwise to the production stepper on a seeded grid.
//
// The transcription scores the pool one row at a time
// (LowFidelityModel::score, Surrogate::predict), ranks by a full
// std::stable_sort argsort, computes the summed top-1/2/3 recall of the
// switch test itself, and spells out the lines 20-22 random top-up. It
// shares with production only the building blocks below the algorithm:
// the Collector (budget, faults, retries), the component models and the
// boosted-tree surrogate. Where production deliberately deviates from
// the paper, the transcription encodes the deviation too and cites the
// comment in src/tuner/ceal.cc that justifies it.
//
// The grid: workflow x objective x budget (down to 3) x history x fault
// rate x pool_chunk_rows x seed, 312 cells over 300-row pools, each
// compared at 1 and at 4 workers. The six shards (one per workflow and
// objective) take about 7 s together on a 4-core host.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/error.h"
#include "core/parallel.h"
#include "core/stats.h"
#include "sim/workloads.h"
#include "tuner/ceal.h"
#include "tuner/collector.h"
#include "tuner/low_fidelity.h"
#include "tuner/stepper.h"
#include "tuner/surrogate.h"

namespace ceal::tuner {
namespace {

/// Everything a session is judged by: its result, the budget spent
/// after each step of the sliced session, and where it left the session
/// rng (which pins every random draw, including a top-up after the last
/// batch that no measurement ever sees). A session in which every
/// attempt failed has no M_H and no result; it is `unfinished`.
struct SessionTrace {
  bool unfinished = false;
  TuneResult result;
  std::vector<std::size_t> budget_after_step;
  std::array<std::uint64_t, 4> rng_state{};
};

// ---------------------------------------------------------------------
// Algorithm 1, literally.

/// Full ascending argsort; equal scores keep pool order.
std::vector<std::size_t> stable_argsort(const std::vector<double>& scores) {
  std::vector<std::size_t> order(scores.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return scores[a] < scores[b];
                   });
  return order;
}

/// The `count` best-scored configurations not measured yet.
std::vector<std::size_t> best_unmeasured(const std::vector<double>& scores,
                                         const Collector& collector,
                                         std::size_t count) {
  std::vector<std::size_t> out;
  for (const std::size_t idx : stable_argsort(scores)) {
    if (out.size() == count) break;
    if (!collector.is_measured(idx)) out.push_back(idx);
  }
  return out;
}

/// `count` random configurations not measured yet: a draw without
/// replacement over the unmeasured pool indices in pool order.
std::vector<std::size_t> random_unmeasured_configs(const Collector& collector,
                                                   std::size_t count,
                                                   Rng& rng) {
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < collector.problem().pool->size(); ++i) {
    if (!collector.is_measured(i)) candidates.push_back(i);
  }
  const std::size_t take = std::min(count, candidates.size());
  std::vector<std::size_t> out;
  for (const std::size_t p :
       rng.sample_without_replacement(candidates.size(), take)) {
    out.push_back(candidates[p]);
  }
  return out;
}

/// Line 14: run the workflow at every queued configuration while budget
/// lasts. Deviation (fault top-up; ceal.cc: "Only successful
/// measurements count towards it; the loop topped failed attempts up
/// from the queueing model's ranking"): while fewer than `want_ok`
/// attempts succeeded, measure the next best unmeasured configuration
/// by `scores`.
void run_batch(Collector& collector, const std::vector<std::size_t>& batch,
               const std::vector<double>& scores, std::size_t want_ok) {
  std::size_t ok = 0;
  for (const std::size_t idx : batch) {
    if (collector.remaining() == 0) break;
    if (collector.try_measure(idx).status == sim::RunStatus::kOk) ++ok;
  }
  while (ok < want_ok && collector.remaining() > 0) {
    const auto next = best_unmeasured(scores, collector, 1);
    if (next.empty()) break;
    if (collector.try_measure(next[0]).status == sim::RunStatus::kOk) ++ok;
  }
}

/// Positions of the n smallest entries.
std::vector<std::size_t> top_n(const std::vector<double>& values,
                               std::size_t n) {
  auto order = stable_argsort(values);
  order.resize(n);
  std::sort(order.begin(), order.end());
  return order;
}

std::size_t common_count(const std::vector<std::size_t>& a,
                         const std::vector<std::size_t>& b) {
  std::vector<std::size_t> common;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(common));
  return common.size();
}

/// Line 17: recall@1 + recall@2 + recall@3 (percent) of `predicted`
/// against the measurements of the same batch.
double recall_top123(const std::vector<double>& predicted,
                     const std::vector<double>& measured) {
  double sum = 0.0;
  for (std::size_t n = 1; n <= 3 && n <= predicted.size(); ++n) {
    sum += 100.0 *
           static_cast<double>(
               common_count(top_n(predicted, n), top_n(measured, n))) /
           static_cast<double>(n);
  }
  return sum;
}

SessionTrace algorithm1(const TuningProblem& problem, const CealParams& p,
                        std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  Collector collector(problem, m, &rng);
  const auto& workflow = problem.workload->workflow;
  const auto& space = workflow.joint_space();
  const auto& pool = problem.pool->configs;
  SessionTrace trace;

  // Lines 1-6: component models from m_R charged rounds, or from the
  // free history (m_R = 0).
  const std::size_t m_r =
      problem.components_are_history
          ? 0
          : std::clamp<std::size_t>(
                static_cast<std::size_t>(std::llround(
                    p.mR_fraction * static_cast<double>(m))),
                1, m - 2);
  const auto& component_indices =
      problem.components_are_history
          ? collector.all_component_samples()
          : collector.acquire_component_samples(m_r, rng);
  const LowFidelityModel m_low(
      workflow, problem.objective,
      std::make_shared<const ComponentModelSet>(
          workflow, problem.objective, *problem.component_samples,
          component_indices, rng, problem.surrogate_gbt));
  std::vector<double> low(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) low[i] = m_low.score(pool[i]);

  // Line 7. Deviation (even m0 with m0 <= m - m_R; ceal.cc: "keep m0/2
  // integral", "never exceed the run budget").
  std::size_t m0 = std::max<std::size_t>(
      2, static_cast<std::size_t>(
             std::llround(p.m0_fraction * static_cast<double>(m))));
  if (m0 % 2 == 1) ++m0;
  m0 = std::min(m0, m - m_r);
  std::size_t m0_used = m0 / 2;
  // Line 8. Deviation (m_B >= 3; ceal.cc: "we additionally keep batches
  // at >= 3 so the top-1/2/3 recalls of the switch detector carry
  // signal").
  std::size_t m_b =
      std::max<std::size_t>(3, (m - std::min(m, m0 + m_r)) / p.iterations);

  // Lines 9-11: m0/2 random samples plus M_L's top m_B; M = M_L. The top
  // m_B is taken over the configurations not measured yet, so it may
  // repeat a random pick (the repeat is served from the cache).
  std::vector<std::size_t> queue =
      random_unmeasured_configs(collector, m0_used, rng);
  for (const std::size_t idx : best_unmeasured(low, collector, m_b)) {
    queue.push_back(idx);
  }
  std::vector<double> queue_scores = low;
  Surrogate m_high(problem.surrogate_gbt);  // line 12
  bool use_high = false;
  trace.budget_after_step.push_back(collector.runs_used());

  const auto high_scores = [&] {
    std::vector<double> scores(pool.size());
    for (std::size_t i = 0; i < pool.size(); ++i) {
      scores[i] = m_high.predict(space, pool[i]);
    }
    return scores;
  };

  for (std::size_t i = 1; i <= p.iterations && !queue.empty(); ++i) {  // 13
    const std::size_t batch_start = collector.ok_indices().size();
    run_batch(collector, queue, queue_scores, queue.size());  // line 14
    queue.clear();
    const auto& ok_indices = collector.ok_indices();
    const auto& ok_values = collector.ok_values();
    const std::size_t batch_len = ok_indices.size() - batch_start;

    if (batch_len == 0) {
      // Deviation (ceal.cc: "Every attempt this iteration failed: skip
      // detection and the M_H refit, and let rank() re-queue from the
      // low-fidelity ranking so the next iteration retries"): M_L's top
      // m_B again, even after the switch.
      if (collector.remaining() == 0) break;
      queue = best_unmeasured(low, collector, m_b);
      queue_scores = low;
      trace.budget_after_step.push_back(collector.runs_used());
      continue;
    }

    // Lines 16-24: switch detection while M = M_L, once M_H exists and
    // the batch holds 3 successes.
    if (p.enable_switch_detection && !use_high && m_high.is_fitted() &&
        batch_len >= 3) {
      std::vector<double> batch_high, batch_low, batch_meas;
      for (std::size_t b = batch_start; b < ok_indices.size(); ++b) {
        batch_high.push_back(m_high.predict(space, pool[ok_indices[b]]));
        batch_low.push_back(low[ok_indices[b]]);
        batch_meas.push_back(ok_values[b]);
      }
      const double s_high = recall_top123(batch_high, batch_meas);  // 17
      const double s_low = recall_top123(batch_low, batch_meas);

      // Lines 20-22: if M_H's three favourite measured configurations are
      // not all in the better half of the measurements, inject
      // (m0 - m0')/2 random samples into the next batch.
      std::vector<double> measured_high;
      for (const std::size_t idx : ok_indices) {
        measured_high.push_back(m_high.predict(space, pool[idx]));
      }
      const std::size_t n_fav = std::min<std::size_t>(3, ok_indices.size());
      const std::size_t half =
          std::max<std::size_t>(n_fav, ok_indices.size() / 2);
      const std::size_t agree = common_count(top_n(measured_high, n_fav),
                                             top_n(ok_values, half));
      if (p.enable_random_topup && agree < n_fav && m0_used < m0) {
        const std::size_t extra = (m0 - m0_used) / 2;
        if (extra > 0) {
          queue = random_unmeasured_configs(collector, extra, rng);
          m0_used += extra;
        }
      }

      if (s_high >= s_low) {  // lines 23-24: M <- M_H
        use_high = true;
        if (i < p.iterations) m_b += (m0 - m0_used) / (p.iterations - i);
      }
    }

    // Line 25: train M_H on every successful measurement.
    std::vector<config::Configuration> configs;
    for (const std::size_t idx : ok_indices) configs.push_back(pool[idx]);
    m_high.fit(space, configs, ok_values, rng);

    if (collector.remaining() == 0) break;
    // Lines 26-27: evaluate the pool with M and queue its top m_B.
    queue_scores = use_high ? high_scores() : low;
    const auto top = best_unmeasured(queue_scores, collector, m_b);
    queue.insert(queue.end(), top.begin(), top.end());
    trace.budget_after_step.push_back(collector.runs_used());
  }

  trace.rng_state = rng.state();
  if (!m_high.is_fitted()) {
    trace.unfinished = true;
    return trace;
  }
  // Line 28 and the searcher. Deviation (calibrated max-ensemble; ceal.cc:
  // "a configuration only ranks highly when *both* models believe in
  // it"): M_L is rescaled by the median measured/score ratio, and the
  // final score is the larger of it and M_H's prediction.
  std::vector<double> calibrated = low;
  std::vector<double> ratios;
  for (std::size_t s = 0; s < collector.ok_indices().size(); ++s) {
    const double score = low[collector.ok_indices()[s]];
    if (score > 0.0) ratios.push_back(collector.ok_values()[s] / score);
  }
  if (!ratios.empty()) {
    const double factor = ceal::median(ratios);
    for (double& v : calibrated) v *= factor;
  }
  std::vector<double> scores = high_scores();
  if (p.ensemble_final) {
    for (std::size_t i = 0; i < scores.size(); ++i) {
      scores[i] = std::max(scores[i], calibrated[i]);
    }
  }
  for (std::size_t s = 0; s < collector.ok_indices().size(); ++s) {
    scores[collector.ok_indices()[s]] = collector.ok_values()[s];
  }

  TuneResult& r = trace.result;
  r.best_predicted_index = static_cast<std::size_t>(
      std::min_element(scores.begin(), scores.end()) - scores.begin());
  r.model_scores = std::move(scores);
  r.measured_indices = collector.measured_indices();
  r.measured_statuses = collector.measured_statuses();
  r.failed_runs = collector.failed_count();
  const auto& values = collector.ok_values();
  r.best_measured_index = collector.ok_indices()[static_cast<std::size_t>(
      std::min_element(values.begin(), values.end()) - values.begin())];
  r.runs_used = collector.runs_used();
  r.cost_exec_s = collector.cost_exec_s();
  r.cost_comp_ch = collector.cost_comp_ch();
  trace.budget_after_step.push_back(collector.runs_used());
  return trace;
}

// ---------------------------------------------------------------------
// The production stepper, driven one step at a time.

SessionTrace production(const TuningProblem& problem, const CealParams& p,
                        std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  const auto stepper = Ceal(p).make_stepper(problem, m, rng);
  SessionTrace trace;
  try {
    do {
      stepper->step();
      trace.budget_after_step.push_back(stepper->progress().budget_used);
    } while (!stepper->done());
    trace.result = stepper->take_result();
  } catch (const InvariantError&) {  // "CEAL collected no workflow samples"
    trace.unfinished = true;
  }
  trace.rng_state = rng.state();
  return trace;
}

// ---------------------------------------------------------------------
// The grid.

struct Cell {
  std::size_t budget;
  bool history;
  double fail_prob;
  std::size_t max_attempts;
  std::size_t pool_chunk_rows;
  std::uint64_t seed;
  CealParams params;

  std::string describe() const {
    return "budget " + std::to_string(budget) + (history ? " history" : "") +
           " faults " + std::to_string(fail_prob) + "x" +
           std::to_string(max_attempts) + " chunk " +
           std::to_string(pool_chunk_rows) + " seed " + std::to_string(seed) +
           (params.enable_switch_detection ? "" : " no-switch") +
           (params.enable_random_topup ? "" : " no-topup") +
           (params.ensemble_final ? "" : " no-ensemble");
  }
};

/// 52 cells per shard: budget {3, 7, 20, 50} x history x fault setting
/// {none, 0.3 with 2 attempts, 0.7 with 1 attempt} x two seeds (the
/// second streaming the pool in 64-row chunks), plus four faulted cells
/// at budget 20, three of them with one CEAL ablation switch off.
std::vector<Cell> grid(std::uint64_t shard_seed) {
  struct Faults {
    double fail_prob;
    std::size_t max_attempts;
  };
  std::vector<Cell> cells;
  for (const std::size_t budget : {3, 7, 20, 50}) {
    for (const bool history : {false, true}) {
      for (const Faults f : {Faults{0.0, 1}, Faults{0.3, 2}, Faults{0.7, 1}}) {
        for (std::uint64_t s = 0; s < 2; ++s) {
          const std::uint64_t seed = shard_seed + 7 * cells.size() + s;
          cells.push_back({budget, history, f.fail_prob, f.max_attempts,
                           s == 0 ? 0u : 64u, seed,
                           history ? CealParams::with_history()
                                   : CealParams::no_history()});
        }
      }
    }
  }
  for (std::size_t a = 0; a < 4; ++a) {
    Cell cell{20, a % 2 == 1, 0.3, 2, a < 2 ? 0u : 64u,
              shard_seed + 1000 + a, CealParams::no_history()};
    if (cell.history) cell.params = CealParams::with_history();
    if (a == 0) cell.params.enable_switch_detection = false;
    if (a == 1) cell.params.enable_random_topup = false;
    if (a == 2) cell.params.ensemble_final = false;
    // a == 3: a second faulted history cell with every switch on.
    cells.push_back(cell);
  }
  return cells;
}

struct Env {
  sim::Workload wl;
  MeasuredPool pool;
  std::vector<ComponentSamples> comps;

  Env(sim::Workload workload, std::uint64_t seed)
      : wl(std::move(workload)),
        pool(measure_pool(wl.workflow, 300, seed)),
        comps(measure_components(wl.workflow, 60, seed + 1)) {}
};

const Env& env(const std::string& workflow) {
  static const Env lv(sim::make_lv(), 31), hs(sim::make_hs(), 41),
      gp(sim::make_gp(), 51);
  return workflow == "LV" ? lv : workflow == "HS" ? hs : gp;
}

void expect_same(const SessionTrace& a, const SessionTrace& b,
                 const std::string& context) {
  ASSERT_EQ(a.budget_after_step, b.budget_after_step) << context;
  ASSERT_EQ(a.rng_state, b.rng_state) << context;
  ASSERT_EQ(a.unfinished, b.unfinished) << context;
  if (a.unfinished) return;
  ASSERT_EQ(a.result.measured_indices, b.result.measured_indices) << context;
  ASSERT_EQ(a.result.measured_statuses, b.result.measured_statuses)
      << context;
  ASSERT_EQ(a.result.failed_runs, b.result.failed_runs) << context;
  ASSERT_EQ(a.result.best_predicted_index, b.result.best_predicted_index)
      << context;
  ASSERT_EQ(a.result.best_measured_index, b.result.best_measured_index)
      << context;
  ASSERT_EQ(a.result.runs_used, b.result.runs_used) << context;
  ASSERT_EQ(a.result.cost_exec_s, b.result.cost_exec_s) << context;
  ASSERT_EQ(a.result.cost_comp_ch, b.result.cost_comp_ch) << context;
  ASSERT_EQ(a.result.model_scores.size(), b.result.model_scores.size())
      << context;
  for (std::size_t i = 0; i < a.result.model_scores.size(); ++i) {
    // Bitwise: == would also accept -0.0 for 0.0.
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.result.model_scores[i]),
              std::bit_cast<std::uint64_t>(b.result.model_scores[i]))
        << context << ", score " << i;
  }
}

class CealOracle
    : public ::testing::TestWithParam<std::tuple<std::string, Objective>> {
 protected:
  void TearDown() override { set_global_thread_pool_threads(0); }
};

TEST_P(CealOracle, ProductionMatchesAlgorithm1BitwiseAtOneAndFourWorkers) {
  const auto& [workflow, objective] = GetParam();
  const Env& e = env(workflow);
  const auto cells =
      grid(objective == Objective::kExecTime ? 100 : 200);
  ASSERT_EQ(cells.size(), 52u);

  std::vector<SessionTrace> expected;
  set_global_thread_pool_threads(1);
  for (const Cell& cell : cells) {
    TuningProblem problem{&e.wl,    objective, &e.pool, &e.comps,
                          cell.history, {}};
    problem.measurement.faults.fail_prob = cell.fail_prob;
    problem.measurement.max_attempts = cell.max_attempts;
    problem.pool_chunk_rows = cell.pool_chunk_rows;
    expected.push_back(algorithm1(problem, cell.params, cell.budget,
                                  cell.seed));
  }
  for (const std::size_t workers : {1u, 4u}) {
    set_global_thread_pool_threads(workers);
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const Cell& cell = cells[c];
      TuningProblem problem{&e.wl,    objective, &e.pool, &e.comps,
                            cell.history, {}};
      problem.measurement.faults.fail_prob = cell.fail_prob;
      problem.measurement.max_attempts = cell.max_attempts;
      problem.pool_chunk_rows = cell.pool_chunk_rows;
      ASSERT_NO_FATAL_FAILURE(expect_same(
          expected[c],
          production(problem, cell.params, cell.budget, cell.seed),
          cell.describe() + ", " + std::to_string(workers) + " workers"));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CealOracle,
    ::testing::Combine(::testing::Values("LV", "HS", "GP"),
                       ::testing::Values(Objective::kExecTime,
                                         Objective::kComputerTime)),
    [](const auto& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) == Objective::kExecTime ? "_exec"
                                                              : "_comp");
    });

}  // namespace
}  // namespace ceal::tuner
