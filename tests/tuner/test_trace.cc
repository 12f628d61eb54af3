// Observability contract of the tuning loop (docs/OBSERVABILITY.md):
// traces are deterministic modulo the `timing` sub-object, attaching
// telemetry never changes tuning results, and the emitted events agree
// with the TuneResult ledger.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/json.h"
#include "core/telemetry.h"
#include "core/parallel.h"
#include "sim/workloads.h"
#include "tuner/active_learning.h"
#include "tuner/ceal.h"
#include "tuner/evaluation.h"
#include "tuner/random_search.h"

namespace ceal::tuner {
namespace {

/// Keeps each event's serialised JSON line in memory.
class RecordingSink final : public telemetry::TraceSink {
 public:
  void write(const telemetry::TraceEvent& event) override {
    lines.push_back(event.to_json().dump());
  }
  std::vector<std::string> lines;
};

std::vector<std::string> strip_timing(const std::vector<std::string>& lines) {
  std::vector<std::string> out;
  out.reserve(lines.size());
  for (const auto& line : lines) {
    json::Value v = json::Value::parse(line);
    v.remove_recursive("timing");
    out.push_back(v.dump());
  }
  return out;
}

class TraceTest : public ::testing::Test {
 protected:
  TraceTest()
      : wl_(sim::make_lv()),
        pool_(measure_pool(wl_.workflow, 400, 21)),
        comps_(measure_components(wl_.workflow, 120, 22)) {}

  TuningProblem problem(bool history,
                        Objective obj = Objective::kExecTime) {
    return TuningProblem{&wl_, obj, &pool_, &comps_, history, {}};
  }

  /// Runs one seeded CEAL session with a recording sink attached.
  std::vector<std::string> traced_ceal_run(std::uint64_t seed,
                                           TuneResult* result = nullptr) {
    RecordingSink sink;
    telemetry::Telemetry tel(&sink);
    auto prob = problem(true);
    prob.telemetry = &tel;
    Ceal ceal(CealParams::with_history());
    ceal::Rng rng(seed);
    const TuneResult r = ceal.tune(prob, 25, rng);
    if (result != nullptr) *result = r;
    return sink.lines;
  }

  sim::Workload wl_;
  MeasuredPool pool_;
  std::vector<ComponentSamples> comps_;
};

TEST_F(TraceTest, SeededRunsProduceByteIdenticalTracesModuloTiming) {
  const auto a = strip_timing(traced_ceal_run(9));
  const auto b = strip_timing(traced_ceal_run(9));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "trace diverged at event " << i;
  }
}

TEST_F(TraceTest, DifferentSeedsProduceDifferentTraces) {
  const auto a = strip_timing(traced_ceal_run(9));
  const auto b = strip_timing(traced_ceal_run(10));
  EXPECT_NE(a, b);
}

TEST_F(TraceTest, AttachingTelemetryDoesNotChangeTheResult) {
  auto with_tel = problem(true);
  RecordingSink sink;
  telemetry::Telemetry tel(&sink);
  with_tel.telemetry = &tel;
  auto without_tel = problem(true);

  Ceal ceal(CealParams::with_history());
  ceal::Rng r1(11), r2(11);
  const TuneResult a = ceal.tune(with_tel, 25, r1);
  const TuneResult b = ceal.tune(without_tel, 25, r2);

  EXPECT_EQ(a.best_predicted_index, b.best_predicted_index);
  EXPECT_EQ(a.best_measured_index, b.best_measured_index);
  EXPECT_EQ(a.measured_indices, b.measured_indices);
  EXPECT_EQ(a.model_scores, b.model_scores);
  EXPECT_EQ(a.runs_used, b.runs_used);
  EXPECT_FALSE(sink.lines.empty());
}

TEST_F(TraceTest, SwitchEventMatchesPerIterationModelLabels) {
  const auto lines = traced_ceal_run(12);
  std::int64_t switch_iteration = -1;
  std::vector<std::pair<std::int64_t, std::string>> iteration_models;
  std::vector<std::int64_t> switched_flags;
  for (const auto& line : lines) {
    const json::Value v = json::Value::parse(line);
    const std::string name = v.at("event").as_string();
    if (name == "ceal.switch") {
      EXPECT_EQ(switch_iteration, -1) << "CEAL switched more than once";
      switch_iteration = v.at("iteration").as_int();
    }
    if (name == "ceal.iteration") {
      iteration_models.emplace_back(v.at("iteration").as_int(),
                                    v.at("model").as_string());
      if (v.at("switched").as_bool()) {
        switched_flags.push_back(v.at("iteration").as_int());
      }
    }
  }
  ASSERT_FALSE(iteration_models.empty());
  if (switch_iteration < 0) {
    // No switch: every iteration must report the low-fidelity model.
    for (const auto& [iter, model] : iteration_models) {
      EXPECT_EQ(model, "low") << "iteration " << iter;
    }
    EXPECT_TRUE(switched_flags.empty());
  } else {
    // The switch iteration is exactly the one flagged switched=true, and
    // the model label flips from "low" to "high" at that iteration.
    ASSERT_EQ(switched_flags.size(), 1u);
    EXPECT_EQ(switched_flags[0], switch_iteration);
    for (const auto& [iter, model] : iteration_models) {
      EXPECT_EQ(model, iter < switch_iteration ? "low" : "high")
          << "iteration " << iter;
    }
  }
}

TEST_F(TraceTest, TuneFinishAgreesWithTheResultLedger) {
  TuneResult result;
  const auto lines = traced_ceal_run(13, &result);
  // The ledger event is no longer last on the wire: the causal span
  // layer closes its enclosing tuner.step after it, so the trace must
  // end tune.finish -> span.end... (and nothing else).
  std::size_t finish_at = lines.size();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (json::Value::parse(lines[i]).at("event").as_string() ==
        "tune.finish") {
      finish_at = i;
    }
  }
  ASSERT_LT(finish_at, lines.size());
  for (std::size_t i = finish_at + 1; i < lines.size(); ++i) {
    EXPECT_EQ(json::Value::parse(lines[i]).at("event").as_string(),
              "span.end")
        << "event " << i << " after tune.finish";
  }
  const json::Value finish = json::Value::parse(lines[finish_at]);
  EXPECT_EQ(static_cast<std::size_t>(finish.at("runs_used").as_int()),
            result.runs_used);
  EXPECT_EQ(static_cast<std::size_t>(finish.at("measured").as_int()),
            result.measured_indices.size());
  EXPECT_EQ(static_cast<std::size_t>(
                finish.at("best_predicted_index").as_int()),
            result.best_predicted_index);
}

TEST_F(TraceTest, FaultRunFailureCountsMatchTheResult) {
  RecordingSink sink;
  telemetry::Telemetry tel(&sink);
  auto prob = problem(true);
  prob.telemetry = &tel;
  prob.measurement.faults.fail_prob = 0.3;
  prob.measurement.max_attempts = 2;

  RandomSearch rs;
  ceal::Rng rng(14);
  const TuneResult result = rs.tune(prob, 30, rng);

  std::size_t failed_events = 0, ok_events = 0;
  for (const auto& line : sink.lines) {
    const json::Value v = json::Value::parse(line);
    if (v.at("event").as_string() != "measure") continue;
    const std::string status = v.at("status").as_string();
    if (status == "failed") ++failed_events;
    if (status == "ok") ++ok_events;
  }
  EXPECT_EQ(failed_events + tel.counter("measure.censored"),
            result.failed_runs);
  EXPECT_EQ(tel.counter("measure.failed"), failed_events);
  EXPECT_EQ(tel.counter("measure.ok"), ok_events);
  EXPECT_GT(failed_events, 0u);
}

// The deterministic parallel-tracing pattern (telemetry.h header):
// pooled replications each trace into a child Telemetry whose buffer is
// merged in replication order, so the trace of a 4-worker global pool
// must be byte-identical to the one-worker (serial) trace once `timing`
// is stripped — and the evaluation metrics must agree exactly.
TEST_F(TraceTest, PooledEvaluateMatchesSerialTraceAndSummary) {
  constexpr std::size_t kBudget = 20;
  constexpr std::size_t kReps = 4;
  constexpr std::uint64_t kSeed = 17;
  Ceal ceal(CealParams::with_history());

  RecordingSink serial_sink;
  telemetry::Telemetry serial_tel(&serial_sink);
  auto serial_prob = problem(true);
  serial_prob.telemetry = &serial_tel;
  ceal::set_global_thread_pool_threads(1);
  const EvalSummary serial =
      evaluate(serial_prob, ceal, kBudget, kReps, kSeed);

  RecordingSink pooled_sink;
  telemetry::Telemetry pooled_tel(&pooled_sink);
  auto pooled_prob = problem(true);
  pooled_prob.telemetry = &pooled_tel;
  ceal::set_global_thread_pool_threads(4);
  const EvalSummary pooled =
      evaluate(pooled_prob, ceal, kBudget, kReps, kSeed);
  ceal::set_global_thread_pool_threads(0);

  const auto serial_lines = strip_timing(serial_sink.lines);
  const auto pooled_lines = strip_timing(pooled_sink.lines);
  ASSERT_EQ(serial_lines.size(), pooled_lines.size());
  for (std::size_t i = 0; i < serial_lines.size(); ++i) {
    EXPECT_EQ(serial_lines[i], pooled_lines[i])
        << "pooled trace diverged at event " << i;
  }

  EXPECT_EQ(serial.replications, pooled.replications);
  EXPECT_EQ(serial.mean_norm_perf, pooled.mean_norm_perf);
  EXPECT_EQ(serial.median_norm_perf, pooled.median_norm_perf);
  EXPECT_EQ(serial.mean_recall, pooled.mean_recall);
  EXPECT_EQ(serial.mean_mdape_all, pooled.mean_mdape_all);
  EXPECT_EQ(serial.mean_runs_used, pooled.mean_runs_used);
  EXPECT_EQ(serial.mean_improvement, pooled.mean_improvement);

  // The merged counters match the serial accumulators exactly.
  EXPECT_EQ(serial_tel.counters(), pooled_tel.counters());
  EXPECT_EQ(serial_tel.counter("evaluate.replications"), kReps);
}

TEST_F(TraceTest, SimpleTunersEmitIterationEvents) {
  RecordingSink sink;
  telemetry::Telemetry tel(&sink);
  auto prob = problem(true);
  prob.telemetry = &tel;
  ActiveLearning al;
  ceal::Rng rng(15);
  al.tune(prob, 20, rng);

  std::size_t iterations = 0;
  for (const auto& line : sink.lines) {
    const json::Value v = json::Value::parse(line);
    if (v.at("event").as_string() == "al.iteration") ++iterations;
  }
  EXPECT_GT(iterations, 0u);
  EXPECT_EQ(tel.counter("tuner.iterations"), iterations);
  EXPECT_EQ(json::Value::parse(sink.lines.front()).at("event").as_string(),
            "tune.start");
}

}  // namespace
}  // namespace ceal::tuner
