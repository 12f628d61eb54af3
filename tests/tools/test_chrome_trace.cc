// tools/chrome_trace.h: exporting causal span traces to the Chrome
// trace-event format, and the strict validator the exports must pass.
#include "tools/chrome_trace.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/json.h"
#include "core/telemetry.h"

namespace ceal::tools {
namespace {

class RecordingSink final : public telemetry::TraceSink {
 public:
  void write(const telemetry::TraceEvent& event) override {
    lines.push_back(event.to_json().dump());
  }
  std::vector<std::string> lines;
};

/// Runs a small nested span tree through real Telemetry and returns the
/// parsed trace — the exact producer format the exporter consumes.
std::vector<json::Value> sample_trace(std::uint64_t seed) {
  RecordingSink sink;
  telemetry::Telemetry tel(&sink);
  tel.seed_trace(seed);
  {
    telemetry::ScopedSpan step(&tel, "tuner.step");
    { telemetry::ScopedSpan fit(&tel, "surrogate.fit"); }
    { telemetry::ScopedSpan predict(&tel, "surrogate.predict"); }
  }
  // A non-span event interleaved, as real traces have.
  tel.emit(telemetry::TraceEvent("tune.finish"));
  std::vector<json::Value> events;
  for (const auto& line : sink.lines) {
    events.push_back(json::Value::parse(line));
  }
  return events;
}

TEST(ChromeTraceExport, ProducesAValidatedDocument) {
  const json::Value doc = export_chrome_trace(sample_trace(11));
  EXPECT_EQ(validate_chrome_trace(doc), 3u);
  const json::Value& events = doc.at("traceEvents");
  // 6 B/E events plus process_name + thread_name metadata.
  EXPECT_EQ(events.size(), 8u);
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  // First events are the metadata naming the lane.
  EXPECT_EQ(events.at(0).at("ph").as_string(), "M");
  EXPECT_EQ(events.at(0).at("name").as_string(), "process_name");
  EXPECT_EQ(events.at(1).at("name").as_string(), "thread_name");
  EXPECT_EQ(events.at(1).at("args").at("name").as_string(), "strand 0");
}

TEST(ChromeTraceExport, StripTsIsByteStableAcrossRuns) {
  const json::Value a = export_chrome_trace(sample_trace(5), true);
  const json::Value b = export_chrome_trace(sample_trace(5), true);
  EXPECT_EQ(a.dump(), b.dump());
  EXPECT_EQ(validate_chrome_trace(a), 3u);
  // Stripped timestamps are trace positions, starting at 0.
  const json::Value& events = a.at("traceEvents");
  EXPECT_EQ(events.at(2).at("ts").number_lexeme(), "0");
}

TEST(ChromeTraceExport, WithoutStripTsTimestampsAreMonotonePerLane) {
  const json::Value doc = export_chrome_trace(sample_trace(5), false);
  EXPECT_EQ(validate_chrome_trace(doc), 3u);  // validator checks monotone ts
}

TEST(ChromeTraceExport, SpanEventMissingFieldsIsRejected) {
  std::vector<json::Value> events;
  events.push_back(json::Value::parse("{\"event\":\"span.begin\"}"));
  EXPECT_THROW(export_chrome_trace(events), ChromeTraceError);
}

json::Value doc_of(const std::string& trace_events_json) {
  return json::Value::parse("{\"traceEvents\":" + trace_events_json + "}");
}

std::string error_of(const json::Value& doc) {
  try {
    validate_chrome_trace(doc);
  } catch (const ChromeTraceError& e) {
    return e.what();
  }
  return "";
}

TEST(ChromeTraceValidate, RejectsMissingTraceEvents) {
  EXPECT_NE(error_of(json::Value::parse("{}")).find("traceEvents"),
            std::string::npos);
}

TEST(ChromeTraceValidate, RejectsEventWithoutName) {
  const std::string err =
      error_of(doc_of("[{\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":0}]"));
  EXPECT_NE(err.find("chrome:event 1:"), std::string::npos);
  EXPECT_NE(err.find("'name'"), std::string::npos);
}

TEST(ChromeTraceValidate, RejectsEndWithoutBegin) {
  const std::string err = error_of(doc_of(
      "[{\"name\":\"x\",\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":0}]"));
  EXPECT_NE(err.find("chrome:event 1:"), std::string::npos);
  EXPECT_NE(err.find("no open span"), std::string::npos);
}

TEST(ChromeTraceValidate, RejectsMismatchedEndName) {
  const std::string err = error_of(doc_of(
      "[{\"name\":\"a\",\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":0},"
      "{\"name\":\"b\",\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":1}]"));
  EXPECT_NE(err.find("chrome:event 2:"), std::string::npos);
  EXPECT_NE(err.find("does not match open span"), std::string::npos);
}

TEST(ChromeTraceValidate, RejectsBackwardsTimestamps) {
  const std::string err = error_of(doc_of(
      "[{\"name\":\"a\",\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":5},"
      "{\"name\":\"a\",\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":4}]"));
  EXPECT_NE(err.find("chrome:event 2:"), std::string::npos);
  EXPECT_NE(err.find("goes backwards"), std::string::npos);
}

TEST(ChromeTraceValidate, RejectsDuplicateSpanIds) {
  const std::string err = error_of(doc_of(
      "[{\"name\":\"a\",\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":0,"
      "\"args\":{\"span_id\":\"aa\"}},"
      "{\"name\":\"a\",\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":1},"
      "{\"name\":\"b\",\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":2,"
      "\"args\":{\"span_id\":\"aa\"}},"
      "{\"name\":\"b\",\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":3}]"));
  EXPECT_NE(err.find("chrome:event 3:"), std::string::npos);
  EXPECT_NE(err.find("duplicate span_id"), std::string::npos);
}

TEST(ChromeTraceValidate, RejectsParentNotMatchingEnclosingSpan) {
  const std::string err = error_of(doc_of(
      "[{\"name\":\"a\",\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":0,"
      "\"args\":{\"span_id\":\"aa\"}},"
      "{\"name\":\"b\",\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":1,"
      "\"args\":{\"span_id\":\"bb\",\"parent_span_id\":\"zz\"}}]"));
  EXPECT_NE(err.find("chrome:event 2:"), std::string::npos);
  EXPECT_NE(err.find("does not match enclosing span"), std::string::npos);
}

TEST(ChromeTraceValidate, RejectsUnclosedSpansAtEndOfTrace) {
  const std::string err = error_of(doc_of(
      "[{\"name\":\"a\",\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":0}]"));
  EXPECT_NE(err.find("unclosed span 'a'"), std::string::npos);
}

TEST(ChromeTraceValidate, AcceptsCrossStrandParents) {
  // A strand's root span may parent on a span in another tid; the
  // validator only holds parents to the enclosing stack within a lane.
  const json::Value doc = doc_of(
      "[{\"name\":\"eval\",\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":0,"
      "\"args\":{\"span_id\":\"aa\"}},"
      "{\"name\":\"rep\",\"ph\":\"B\",\"pid\":1,\"tid\":2,\"ts\":0,"
      "\"args\":{\"span_id\":\"bb\",\"parent_span_id\":\"aa\"}},"
      "{\"name\":\"rep\",\"ph\":\"E\",\"pid\":1,\"tid\":2,\"ts\":1},"
      "{\"name\":\"eval\",\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":2}]");
  EXPECT_EQ(validate_chrome_trace(doc), 2u);
}

}  // namespace
}  // namespace ceal::tools
