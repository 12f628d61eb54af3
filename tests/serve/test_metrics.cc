// The server.metrics exposition plane: response shape, per-op error
// tallies, the Prometheus renderer round-tripping through the strict
// validator, quantile agreement between the live exposition and the
// shared offline helper, and trace-sink flushing on drain.
#include "serve/metrics.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/stats.h"
#include "core/telemetry.h"
#include "serve/server.h"

namespace ceal::serve {
namespace {

// RS drains its whole budget in one step, so the shape test uses CEAL,
// whose stepper advances one iteration at a time and stays kRunning
// after a partial step.
const char* kCreateLine =
    "{\"op\":\"session.create\",\"id\":\"m1\",\"workflow\":\"LV\","
    "\"objective\":\"exec\",\"budget\":30,\"algorithm\":\"CEAL\","
    "\"pool_size\":40,\"component_samples\":20,\"seed\":1}";

json::Value expect_ok(const std::string& response_line) {
  json::Value response = json::Value::parse(response_line);
  EXPECT_TRUE(response.at("ok").as_bool()) << response_line;
  return response;
}

TEST(ServeMetricsTest, ResponseCarriesServerSectionsAndSessions) {
  telemetry::Telemetry tel;
  ServerOptions options;
  options.telemetry = &tel;
  ServerCore core(options);
  expect_ok(core.handle_line(kCreateLine));
  expect_ok(core.handle_line(
      "{\"op\":\"session.step\",\"id\":\"m1\",\"steps\":2}"));

  const json::Value metrics =
      expect_ok(core.handle_line("{\"op\":\"server.metrics\"}"));
  const json::Value& server = metrics.at("server");
  EXPECT_EQ(server.at("sessions").as_int(), 1);
  EXPECT_EQ(server.at("requests").as_int(), 3);
  const json::Value& ops = server.at("ops");
  EXPECT_EQ(ops.at("create").at("requests").as_int(), 1);
  EXPECT_EQ(ops.at("step").at("requests").as_int(), 1);
  EXPECT_EQ(ops.at("metrics").at("requests").as_int(), 1);
  EXPECT_TRUE(metrics.contains("counters"));
  EXPECT_TRUE(metrics.contains("gauges"));
  // Spans are histograms; there is no separate spans section.
  EXPECT_FALSE(metrics.contains("spans"));
  EXPECT_TRUE(metrics.contains("histograms"));
  // Stepping through the server records the step-latency histogram.
  EXPECT_TRUE(metrics.at("histograms").contains("timing.serve.step_s"));

  const json::Value& sessions = metrics.at("sessions");
  ASSERT_EQ(sessions.size(), 1u);
  const json::Value& session = sessions.at(std::size_t{0});
  EXPECT_EQ(session.at("id").as_string(), "m1");
  EXPECT_EQ(session.at("state").as_string(), "running");
  EXPECT_EQ(session.at("steps").as_int(), 2);
  EXPECT_TRUE(session.contains("budget_used"));
  EXPECT_TRUE(session.contains("budget_remaining"));
  EXPECT_EQ(session.at("budget_used").as_int() +
                session.at("budget_remaining").as_int(),
            session.at("budget").as_int());
}

TEST(ServeMetricsTest, StepSpanRecordsOncePerRequest) {
  telemetry::Telemetry tel;
  ServerOptions options;
  options.telemetry = &tel;
  ServerCore core(options);
  expect_ok(core.handle_line(kCreateLine));
  constexpr int kSteps = 3;
  for (int i = 0; i < kSteps; ++i) {
    expect_ok(core.handle_line(
        "{\"op\":\"session.step\",\"id\":\"m1\",\"steps\":1}"));
  }
  // One histogram per request: a second timer on the same interval
  // would double the count.
  const json::Value metrics = core.metrics_json();
  EXPECT_EQ(metrics.at("histograms").at("timing.serve.step_s").at("count")
                .as_int(),
            kSteps);
  EXPECT_FALSE(metrics.contains("spans"));

  // Prometheus carries it once, as a histogram, and no span counters.
  const std::string text = to_prometheus(metrics);
  validate_prometheus(text);
  const std::string type_line = "# TYPE ceal_timing_serve_step_s histogram";
  const std::size_t at = text.find(type_line);
  ASSERT_NE(at, std::string::npos);
  EXPECT_EQ(text.find(type_line, at + 1), std::string::npos);
  EXPECT_EQ(text.find("# TYPE ceal_timing_serve_step_s "),
            text.find(type_line));
  EXPECT_NE(text.find("ceal_timing_serve_step_s_count " +
                      std::to_string(kSteps) + "\n"),
            std::string::npos);
  EXPECT_EQ(text.find("_seconds_total"), std::string::npos);
  EXPECT_EQ(text.find("ceal_serve_step_count"), std::string::npos);
}

TEST(ServeMetricsTest, DeterministicSubsetDropsEveryWallClockMember) {
  telemetry::Telemetry tel;
  ServerOptions options;
  options.telemetry = &tel;
  ServerCore core(options);
  expect_ok(core.handle_line(kCreateLine));
  expect_ok(core.handle_line(
      "{\"op\":\"session.step\",\"id\":\"m1\",\"steps\":2}"));
  tel.observe("serve.batch", 2.0);  // a deterministic histogram stays
  json::Value metrics = core.metrics_json();
  json::Value timing = json::Value::object();
  timing.set("exported_unix_s", json::Value::number(1.5));
  metrics.set("timing", std::move(timing));
  ASSERT_TRUE(metrics.at("histograms").contains("timing.serve.step_s"));

  const json::Value stripped = strip_wall_clock(metrics);
  EXPECT_FALSE(stripped.contains("timing"));
  EXPECT_FALSE(stripped.contains("spans"));
  for (const auto& [name, hist] : stripped.at("histograms").members()) {
    EXPECT_FALSE(name.starts_with("timing.")) << name;
  }
  EXPECT_TRUE(stripped.at("histograms").contains("serve.batch"));
  EXPECT_EQ(stripped.at("counters").dump(), metrics.at("counters").dump());
  EXPECT_EQ(stripped.at("sessions").dump(), metrics.at("sessions").dump());
}

TEST(ServeMetricsTest, PerOpErrorTalliesCountFailures) {
  telemetry::Telemetry tel;
  ServerOptions options;
  options.telemetry = &tel;
  ServerCore core(options);
  expect_ok(core.handle_line(kCreateLine));
  // Cancel twice: the second is a per-op error charged to "cancel".
  expect_ok(core.handle_line("{\"op\":\"session.cancel\",\"id\":\"m1\"}"));
  const json::Value err = json::Value::parse(
      core.handle_line("{\"op\":\"session.cancel\",\"id\":\"m1\"}"));
  EXPECT_FALSE(err.at("ok").as_bool());

  const json::Value metrics =
      expect_ok(core.handle_line("{\"op\":\"server.metrics\"}"));
  const json::Value& ops = metrics.at("server").at("ops");
  EXPECT_EQ(ops.at("cancel").at("requests").as_int(), 2);
  EXPECT_EQ(ops.at("cancel").at("errors").as_int(), 1);
  EXPECT_EQ(ops.at("create").at("errors").as_int(), 0);
  EXPECT_EQ(tel.counter("serve.op.cancel.errors"), 1u);
}

TEST(ServeMetricsTest, PrometheusRenderPassesStrictValidation) {
  telemetry::Telemetry tel;
  ServerOptions options;
  options.telemetry = &tel;
  ServerCore core(options);
  expect_ok(core.handle_line(kCreateLine));
  expect_ok(core.handle_line(
      "{\"op\":\"session.step\",\"id\":\"m1\",\"steps\":8}"));

  const std::string text = to_prometheus(core.metrics_json());
  const std::size_t samples = validate_prometheus(text);
  EXPECT_GT(samples, 10u);
  EXPECT_NE(text.find("ceal_serve_op_requests_total{op=\"create\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ceal_timing_serve_step_s histogram"),
            std::string::npos);
  EXPECT_NE(text.find("ceal_session_budget_used{id=\"m1\"}"),
            std::string::npos);
}

TEST(ServeMetricsTest, ValidatorRejectsMalformedExposition) {
  // Sample without a TYPE declaration.
  EXPECT_THROW(validate_prometheus("nope 1\n"), ProtocolError);
  // Non-cumulative histogram buckets.
  EXPECT_THROW(validate_prometheus("# TYPE h histogram\n"
                                   "h_bucket{le=\"1\"} 5\n"
                                   "h_bucket{le=\"2\"} 3\n"
                                   "h_bucket{le=\"+Inf\"} 5\n"
                                   "h_sum 4\nh_count 5\n"),
               ProtocolError);
  // +Inf bucket disagreeing with _count.
  EXPECT_THROW(validate_prometheus("# TYPE h histogram\n"
                                   "h_bucket{le=\"1\"} 2\n"
                                   "h_bucket{le=\"+Inf\"} 2\n"
                                   "h_sum 1\nh_count 3\n"),
               ProtocolError);
  // Histogram not ending in +Inf.
  EXPECT_THROW(validate_prometheus("# TYPE h histogram\n"
                                   "h_bucket{le=\"1\"} 2\n"
                                   "h_sum 1\nh_count 2\n"),
               ProtocolError);
  // Garbage value.
  EXPECT_THROW(validate_prometheus("# TYPE g gauge\ng banana\n"),
               ProtocolError);
  // A well-formed family passes and counts its samples.
  EXPECT_EQ(validate_prometheus("# TYPE h histogram\n"
                                "h_bucket{le=\"1\"} 2\n"
                                "h_bucket{le=\"+Inf\"} 3\n"
                                "h_sum 4.5\nh_count 3\n"),
            4u);
}

// The corpus behind `ceal_top --check-prom`: every malformed exposition
// must fail with a message naming the offending line, so a failing CI
// gate points at the defect instead of just "invalid".
TEST(ServeMetricsTest, ValidatorErrorsCarryLineNumbers) {
  const auto error_of = [](const std::string& text) {
    try {
      validate_prometheus(text);
    } catch (const ProtocolError& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  // Histogram whose bucket series never reaches +Inf: an end-of-family
  // defect, reported against the family name.
  const std::string no_inf = error_of(
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 2\n"
      "h_sum 1\nh_count 2\n");
  EXPECT_NE(no_inf.find("prometheus:"), std::string::npos) << no_inf;
  EXPECT_NE(no_inf.find("+Inf"), std::string::npos) << no_inf;
  // Non-monotone le series: the regression is on line 3.
  const std::string non_monotone = error_of(
      "# TYPE h histogram\n"
      "h_bucket{le=\"2\"} 2\n"
      "h_bucket{le=\"1\"} 3\n"
      "h_bucket{le=\"+Inf\"} 5\n"
      "h_sum 4\nh_count 5\n");
  EXPECT_NE(non_monotone.find("prometheus:line 3:"), std::string::npos)
      << non_monotone;
  EXPECT_NE(non_monotone.find("increasing"), std::string::npos)
      << non_monotone;
  // Cumulative-count regression, also on line 3.
  const std::string non_cumulative = error_of(
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 5\n"
      "h_bucket{le=\"2\"} 3\n"
      "h_bucket{le=\"+Inf\"} 5\n"
      "h_sum 4\nh_count 5\n");
  EXPECT_NE(non_cumulative.find("prometheus:line 3:"), std::string::npos)
      << non_cumulative;
  // A sample before any TYPE declaration: line 1.
  const std::string untyped = error_of("orphan 1\n# TYPE g gauge\ng 2\n");
  EXPECT_NE(untyped.find("prometheus:line 1:"), std::string::npos)
      << untyped;
}

TEST(ServeMetricsTest, SessionBlockCarriesAgeAndRecorderOccupancy) {
  telemetry::Telemetry tel;
  ServerOptions options;
  options.telemetry = &tel;
  options.flight_recorder = 16;
  ServerCore core(options);
  expect_ok(core.handle_line(kCreateLine));
  expect_ok(core.handle_line(
      "{\"op\":\"session.step\",\"id\":\"m1\",\"steps\":3}"));

  const json::Value metrics =
      expect_ok(core.handle_line("{\"op\":\"server.metrics\"}"));
  const json::Value& session = metrics.at("sessions").at(std::size_t{0});
  // session_age_steps counts requested steps monotonically — stepping a
  // finished session keeps incrementing it while "steps" freezes.
  EXPECT_EQ(session.at("session_age_steps").as_int(), 3);
  // Ring invariant: occupancy never exceeds capacity, and nothing is
  // reported dropped unless the ring is full.
  const std::int64_t events = session.at("recorder_events").as_int();
  const std::int64_t dropped = session.at("recorder_dropped").as_int();
  EXPECT_GT(events, 0);
  EXPECT_LE(events, 16);
  EXPECT_TRUE(dropped == 0 || events == 16);

  expect_ok(core.handle_line(
      "{\"op\":\"session.cancel\",\"id\":\"m1\"}"));
  expect_ok(core.handle_line(
      "{\"op\":\"session.step\",\"id\":\"m1\",\"steps\":4}"));
  const json::Value after =
      expect_ok(core.handle_line("{\"op\":\"server.metrics\"}"));
  EXPECT_EQ(after.at("sessions")
                .at(std::size_t{0})
                .at("session_age_steps")
                .as_int(),
            7);

  // The same fields surface as labeled Prometheus families and the
  // rendering still passes the strict validator.
  const std::string text = to_prometheus(core.metrics_json());
  validate_prometheus(text);
  EXPECT_NE(text.find("ceal_session_age_steps_total{id=\"m1\"} 7"),
            std::string::npos);
  EXPECT_NE(text.find("ceal_session_recorder_events{id=\"m1\"}"),
            std::string::npos);
  EXPECT_NE(text.find("ceal_session_recorder_dropped_total{id=\"m1\"}"),
            std::string::npos);
}

TEST(ServeMetricsTest, ExpositionQuantilesMatchTheSharedOfflineHelper) {
  // The live exposition computes p50/p90/p99 through the exact same
  // core/stats.h histogram_quantile an offline consumer of the bucket
  // array would use — the values must agree bit-for-bit.
  telemetry::Telemetry tel;
  const std::vector<double> values{1, 2, 2, 3, 5, 8, 13, 21, 34, 55};
  for (double v : values) tel.observe("probe", v);

  const json::Value sections = telemetry_sections_json(&tel);
  const json::Value& hist = sections.at("histograms").at("probe");
  const telemetry::HistogramStats stats = tel.histogram_stats("probe");
  for (const auto& [key, q] :
       std::vector<std::pair<const char*, double>>{
           {"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}}) {
    const double offline = histogram_quantile(
        stats.buckets, telemetry::histogram_upper_bounds(), q, stats.min,
        stats.max);
    EXPECT_EQ(hist.at(key).number_lexeme(),
              json::format_number(offline))
        << key;
  }
  EXPECT_EQ(hist.at("count").as_int(),
            static_cast<std::int64_t>(values.size()));
}

TEST(ServeMetricsTest, NullTelemetryYieldsEmptySections) {
  const json::Value sections = telemetry_sections_json(nullptr);
  EXPECT_EQ(sections.at("counters").members().size(), 0u);
  EXPECT_EQ(sections.at("gauges").members().size(), 0u);
  EXPECT_FALSE(sections.contains("spans"));
  EXPECT_EQ(sections.at("histograms").members().size(), 0u);
}

TEST(ServeMetricsTest, FlushSinksMakesSessionTracesVisible) {
  const std::string dir =
      testing::TempDir() + "/serve_metrics_flush_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ServerOptions options;
  options.trace_dir = dir;
  ServerCore core(options);
  expect_ok(core.handle_line(kCreateLine));
  expect_ok(core.handle_line(
      "{\"op\":\"session.step\",\"id\":\"m1\",\"steps\":2}"));
  core.flush_sinks();
  // The per-session sink must have pushed its bytes to disk while the
  // server (and the sink) are still alive.
  std::ifstream in(dir + "/m1.trace.jsonl");
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"event\""), std::string::npos);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ceal::serve
