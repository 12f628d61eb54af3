#include "core/telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/error.h"
#include "core/flight_recorder.h"
#include "core/json.h"

namespace ceal::telemetry {
namespace {

json::Value parsed(const std::string& line) {
  return json::Value::parse(line);
}

std::string parsed_span_id(const std::string& line) {
  return parsed(line).at("span_id").as_string();
}

/// Collects events in memory for assertions.
class RecordingSink final : public TraceSink {
 public:
  void write(const TraceEvent& event) override {
    lines.push_back(event.to_json().dump());
  }
  void flush() override { ++flushes; }

  std::vector<std::string> lines;
  int flushes = 0;
};

TEST(Telemetry, CountersAccumulateAndDefaultToZero) {
  Telemetry tel;
  EXPECT_EQ(tel.counter("measure.ok"), 0u);
  tel.count("measure.ok");
  tel.count("measure.ok", 3);
  EXPECT_EQ(tel.counter("measure.ok"), 4u);
  EXPECT_EQ(tel.counters().size(), 1u);
}

TEST(Telemetry, GaugesKeepTheLastValue) {
  Telemetry tel;
  tel.gauge("budget.remaining", 25.0);
  tel.gauge("budget.remaining", 7.0);
  ASSERT_EQ(tel.gauges().count("budget.remaining"), 1u);
  EXPECT_DOUBLE_EQ(tel.gauges().at("budget.remaining"), 7.0);
}

TEST(Telemetry, SpansAccumulateCountAndTotal) {
  Telemetry tel;
  const double first = ScopedSpan(&tel, "surrogate.fit").stop();
  const double second = ScopedSpan(&tel, "surrogate.fit").stop();
  // Span `x` is the histogram `timing.x_s`: count and total come from it.
  const HistogramStats stats = tel.histogram_stats("timing.surrogate.fit_s");
  EXPECT_EQ(stats.count, 2u);
  EXPECT_EQ(stats.sum, first + second);
  EXPECT_EQ(stats.min, std::min(first, second));
  EXPECT_EQ(stats.max, std::max(first, second));
  EXPECT_EQ(tel.histograms().count("timing.surrogate.fit_s"), 1u);
  EXPECT_EQ(tel.histogram_stats("timing.never_s").count, 0u);
}

TEST(Telemetry, EmitStampsMonotonicSequenceNumbers) {
  RecordingSink sink;
  Telemetry tel(&sink);
  tel.emit(TraceEvent("first"));
  tel.emit(TraceEvent("second"));
  ASSERT_EQ(sink.lines.size(), 2u);
  EXPECT_EQ(sink.lines[0], "{\"event\":\"first\",\"seq\":0}");
  EXPECT_EQ(sink.lines[1], "{\"event\":\"second\",\"seq\":1}");
}

TEST(Telemetry, EmitWithoutSinkIsDropped) {
  Telemetry tel;
  EXPECT_FALSE(tel.tracing());
  tel.emit(TraceEvent("lost"));  // must not crash
  tel.count("still.counts");
  EXPECT_EQ(tel.counter("still.counts"), 1u);
}

TEST(Telemetry, GaugeMaxKeepsTheHighWaterMark) {
  Telemetry tel;
  tel.gauge_max("pool.queue_depth.max", 3.0);
  tel.gauge_max("pool.queue_depth.max", 9.0);
  tel.gauge_max("pool.queue_depth.max", 5.0);
  EXPECT_DOUBLE_EQ(tel.gauges().at("pool.queue_depth.max"), 9.0);
}

// The thread-safety contract (telemetry.h header): one Telemetry shared
// by any number of concurrent writers loses no updates, and concurrent
// emit() stamps unique, dense sequence numbers. Run under the sanitizer
// stages of run_tier1.sh (asan/ubsan, and tsan with --with-tsan) this is
// also the data-race probe for the sharded accumulators.
TEST(Telemetry, ConcurrentWritersLoseNothing) {
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kOpsPerThread = 2000;
  RecordingSink sink;
  Telemetry tel(&sink);
  std::vector<double> span_seconds(kThreads, 0.0);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tel, &span_seconds, t] {
      // Mix shared names (every shard contended) with per-thread names.
      const std::string own = "thread." + std::to_string(t);
      for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
        tel.count("stress.shared");
        tel.count(own);
        span_seconds[t] +=
            ScopedSpan(&tel, "stress.span", ScopedSpan::kNoEvents).stop();
        tel.gauge_max("stress.peak", static_cast<double>(i));
        if (i % 100 == 0) {
          TraceEvent event("stress.tick");
          event.field("thread", static_cast<std::uint64_t>(t));
          tel.emit(std::move(event));
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(tel.counter("stress.shared"), kThreads * kOpsPerThread);
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(tel.counter("thread." + std::to_string(t)), kOpsPerThread);
  }
  const HistogramStats span = tel.histogram_stats("timing.stress.span_s");
  EXPECT_EQ(span.count, kThreads * kOpsPerThread);
  double expected_s = 0.0;
  for (const double s : span_seconds) expected_s += s;
  EXPECT_NEAR(span.sum, expected_s, 1e-9);
  EXPECT_DOUBLE_EQ(tel.gauges().at("stress.peak"),
                   static_cast<double>(kOpsPerThread - 1));

  // Every emitted event carries a distinct seq, and together they are
  // dense: 0..n-1 with no gaps (nothing was dropped or double-stamped).
  std::set<std::int64_t> seqs;
  for (const auto& line : sink.lines) {
    seqs.insert(json::Value::parse(line).at("seq").as_int());
  }
  ASSERT_EQ(sink.lines.size(), kThreads * (kOpsPerThread / 100));
  EXPECT_EQ(seqs.size(), sink.lines.size());
  EXPECT_EQ(*seqs.begin(), 0);
  EXPECT_EQ(*seqs.rbegin(),
            static_cast<std::int64_t>(sink.lines.size()) - 1);
}

TEST(BufferTraceSinkTest, KeepsEventsInEmissionOrder) {
  BufferTraceSink buffer;
  Telemetry tel(&buffer);
  for (int i = 0; i < 5; ++i) {
    TraceEvent event("buffered");
    event.field("i", i);
    tel.emit(std::move(event));
  }
  ASSERT_EQ(buffer.size(), 5u);
  for (std::size_t i = 0; i < buffer.events().size(); ++i) {
    const json::Value v = buffer.events()[i].to_json();
    EXPECT_EQ(v.at("i").as_int(), static_cast<std::int64_t>(i));
    EXPECT_EQ(v.at("seq").as_int(), static_cast<std::int64_t>(i));
  }
  buffer.clear();
  EXPECT_EQ(buffer.size(), 0u);
}

TEST(Telemetry, MergeAddsAccumulatorsAndReplaysBufferedEvents) {
  RecordingSink parent_sink;
  Telemetry parent(&parent_sink);
  parent.count("shared.counter", 2);
  const double parent_s =
      ScopedSpan(&parent, "shared.span", ScopedSpan::kNoEvents).stop();
  parent.gauge("g", 1.0);
  parent.emit(TraceEvent("parent.before"));  // takes seq 0

  BufferTraceSink buffer;
  Telemetry child(&buffer);
  child.count("shared.counter", 3);
  child.count("child.only");
  const double child_s =
      ScopedSpan(&child, "shared.span", ScopedSpan::kNoEvents).stop();
  child.gauge("g", 7.0);
  child.emit(TraceEvent("child.a"));
  child.emit(TraceEvent("child.b"));

  parent.merge(child, buffer.events());

  EXPECT_EQ(parent.counter("shared.counter"), 5u);
  EXPECT_EQ(parent.counter("child.only"), 1u);
  const HistogramStats span = parent.histogram_stats("timing.shared.span_s");
  EXPECT_EQ(span.count, 2u);
  EXPECT_EQ(span.sum, parent_s + child_s);
  EXPECT_DOUBLE_EQ(parent.gauges().at("g"), 7.0);  // child wins

  // The buffered events were replayed through the parent in order and
  // re-stamped with the parent's sequence numbers.
  ASSERT_EQ(parent_sink.lines.size(), 3u);
  EXPECT_EQ(parent_sink.lines[1], "{\"event\":\"child.a\",\"seq\":1}");
  EXPECT_EQ(parent_sink.lines[2], "{\"event\":\"child.b\",\"seq\":2}");
}

TEST(Telemetry, MergeWithoutEventsOnlyFoldsAccumulators) {
  Telemetry parent;
  Telemetry child;
  child.count("c", 4);
  parent.merge(child);
  EXPECT_EQ(parent.counter("c"), 4u);
}

TEST(TraceEventTest, FieldsSerialiseInOrderWithTimingLast) {
  TraceEvent event("ceal.iteration");
  event.field("iteration", std::uint64_t{3})
      .field("model", "high")
      .field("switched", true)
      .field("value", 1.5)
      .timing("fit_s", 0.25);
  EXPECT_EQ(event.to_json().dump(),
            "{\"event\":\"ceal.iteration\",\"iteration\":3,"
            "\"model\":\"high\",\"switched\":true,\"value\":1.5,"
            "\"timing\":{\"fit_s\":0.25}}");
}

TEST(TraceEventTest, SpanFieldsBecomeArrays) {
  const std::vector<std::size_t> batch{4, 2, 9};
  const std::vector<double> values{1.5, 2.0};
  TraceEvent event("x");
  event.field("batch", std::span<const std::size_t>(batch))
      .field("values", std::span<const double>(values));
  EXPECT_EQ(event.to_json().dump(),
            "{\"event\":\"x\",\"batch\":[4,2,9],\"values\":[1.5,2]}");
}

TEST(JsonlTraceSinkTest, WritesOneEscapedLinePerEvent) {
  std::ostringstream os;
  {
    JsonlTraceSink sink(os);
    TraceEvent event("note");
    event.field("text", "line1\nline2 \"quoted\"");
    sink.write(event);
  }
  EXPECT_EQ(os.str(),
            "{\"event\":\"note\",\"text\":\"line1\\nline2 "
            "\\\"quoted\\\"\"}\n");
}

TEST(JsonlTraceSinkTest, FileSinkFlushesOnDestruction) {
  const std::string path = testing::TempDir() + "telemetry_flush.jsonl";
  {
    JsonlTraceSink sink(path);
    Telemetry tel(&sink);
    tel.emit(TraceEvent("a"));
    tel.emit(TraceEvent("b"));
  }  // destruction must leave both lines on disk
  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(json::Value::parse(lines[0]).at("event").as_string(), "a");
  EXPECT_EQ(json::Value::parse(lines[1]).at("event").as_string(), "b");
}

TEST(JsonlTraceSinkTest, UnwritablePathThrows) {
  EXPECT_THROW(JsonlTraceSink("/nonexistent-dir/trace.jsonl"),
               PreconditionError);
}

TEST(NullTraceSinkTest, SwallowsEverything) {
  NullTraceSink sink;
  Telemetry tel(&sink);
  EXPECT_TRUE(tel.tracing());
  TraceEvent event("dropped");
  event.field("n", 1);
  tel.emit(std::move(event));  // must not crash or emit anywhere
}

TEST(MultiTraceSinkTest, FansOutToEverySinkInOrder) {
  RecordingSink a, b;
  MultiTraceSink multi({&a, &b});
  Telemetry tel(&multi);
  tel.emit(TraceEvent("both"));
  multi.flush();
  ASSERT_EQ(a.lines.size(), 1u);
  ASSERT_EQ(b.lines.size(), 1u);
  EXPECT_EQ(a.lines[0], b.lines[0]);
  EXPECT_EQ(a.flushes, 1);
  EXPECT_EQ(b.flushes, 1);
}

TEST(ScopedSpanTest, RecordsOnceAndIsIdempotent) {
  Telemetry tel;
  ScopedSpan span(&tel, "work");
  const double first = span.stop();
  const double second = span.stop();
  EXPECT_GE(first, 0.0);
  EXPECT_EQ(first, second);
  const HistogramStats stats = tel.histogram_stats("timing.work_s");
  EXPECT_EQ(stats.count, 1u);
  EXPECT_EQ(stats.sum, first);
}

TEST(ScopedSpanTest, DestructionRecordsUnstoppedSpan) {
  Telemetry tel;
  { ScopedSpan span(&tel, "scoped"); }
  EXPECT_EQ(tel.histogram_stats("timing.scoped_s").count, 1u);
}

TEST(ScopedSpanTest, NoEventsSpanFeedsItsHistogramWithoutEmitting) {
  RecordingSink sink;
  Telemetry tel(&sink);
  tel.seed_trace(1);
  ASSERT_TRUE(tel.observed());
  {
    ScopedSpan quiet(&tel, "pool.task", ScopedSpan::kNoEvents);
    EXPECT_EQ(quiet.context().span_id, 0u);
  }
  EXPECT_TRUE(sink.lines.empty());
  EXPECT_EQ(tel.histogram_stats("timing.pool.task_s").count, 1u);
  // A silent span allocates no span id, so the next causal span's ids
  // are what they would be without it.
  { ScopedSpan loud(&tel, "tuner.step"); }
  ASSERT_EQ(sink.lines.size(), 2u);
  Telemetry fresh;
  fresh.seed_trace(1);
  EXPECT_EQ(parsed_span_id(sink.lines[0]),
            span_id_hex(fresh.begin_span("tuner.step").span_id));
}

TEST(ScopedSpanTest, NullTelemetryIsANoOp) {
  ScopedSpan span(nullptr, "ignored");
  EXPECT_EQ(span.stop(), 0.0);
}

TEST(Telemetry, SummaryEventKeepsWallclockUnderTiming) {
  Telemetry tel;
  tel.count("measure.ok", 5);
  tel.gauge("budget.remaining", 3.0);
  const double fit_s = ScopedSpan(&tel, "surrogate.fit").stop();
  const json::Value summary = tel.summary_event().to_json();
  EXPECT_EQ(summary.at("event").as_string(), "telemetry.summary");
  EXPECT_EQ(summary.at("measure.ok").as_int(), 5);
  EXPECT_DOUBLE_EQ(summary.at("budget.remaining").as_double(), 3.0);
  EXPECT_EQ(summary.at("surrogate.fit.count").as_int(), 1);
  // The only wall-clock values live under `timing`; stripping it must
  // leave a deterministic event.
  EXPECT_DOUBLE_EQ(summary.at("timing").at("hist.timing.surrogate.fit_s.sum")
                       .as_double(),
                   fit_s);
  json::Value stripped = summary;
  stripped.remove_recursive("timing");
  EXPECT_FALSE(stripped.contains("timing"));
}

TEST(Telemetry, SummaryEventKeepsSpanCountDeterministicAndQuantilesTimed) {
  Telemetry tel;
  tel.count("a.counter");
  for (int i = 0; i < 3; ++i) ScopedSpan(&tel, "b.span").stop();
  ScopedSpan(&tel, "b").stop();
  ScopedSpan(&tel, "b.span.inner").stop();
  const json::Value summary = tel.summary_event().to_json();
  // Span counts are plain fields, after the counters, in span-name
  // order (which is not the order of their `timing.<span>_s` names).
  std::vector<std::string> keys;
  for (const auto& [key, value] : summary.members()) keys.push_back(key);
  const std::vector<std::string> expect_keys{
      "event", "a.counter", "b.count", "b.span.count", "b.span.inner.count",
      "timing"};
  EXPECT_EQ(keys, expect_keys);
  EXPECT_EQ(summary.at("b.span.count").as_int(), 3);
  // Everything timed about a span is its histogram, under `timing`.
  const json::Value& timing = summary.at("timing");
  for (const char* stat : {"count", "sum", "min", "max", "p50", "p90",
                           "p99"}) {
    EXPECT_TRUE(timing.contains(std::string("hist.timing.b.span_s.") + stat))
        << stat;
  }
  EXPECT_EQ(timing.at("hist.timing.b.span_s.count").as_int(), 3);
  EXPECT_FALSE(timing.contains("b.span.total_s"));
}

TEST(Telemetry, SummaryTableListsEveryMetric) {
  Telemetry tel;
  tel.count("measure.ok", 2);
  tel.gauge("g", 1.0);
  ScopedSpan(&tel, "s").stop();
  std::ostringstream os;
  os << tel.summary_table();
  const std::string out = os.str();
  EXPECT_NE(out.find("measure.ok"), std::string::npos);
  EXPECT_NE(out.find("counter"), std::string::npos);
  EXPECT_NE(out.find("gauge"), std::string::npos);
  EXPECT_NE(out.find("span"), std::string::npos);
  EXPECT_NE(out.find("timing.s_s"), std::string::npos);
}

TEST(Telemetry, SummaryTablePrintsSecondsOnlyForTimingRows) {
  Telemetry tel;
  for (int i = 0; i < 50; ++i) tel.observe("measure.attempts", 1.0);
  ScopedSpan(&tel, "tuner.step").stop();
  const Table table = tel.summary_table();
  std::ostringstream os;
  table.to_csv(os);
  std::istringstream lines(os.str());
  std::string header, attempts, step;
  std::getline(lines, header);
  std::getline(lines, attempts);
  std::getline(lines, step);
  EXPECT_EQ(header, "kind,name,count/value,sum,p50,p99,unit");
  // A deterministic histogram's sum is a plain number, not seconds.
  EXPECT_EQ(attempts.rfind("histogram,measure.attempts,50,50.000000,", 0),
            0u)
      << attempts;
  EXPECT_TRUE(attempts.ends_with(","));
  EXPECT_EQ(step.rfind("span,timing.tuner.step_s,1,", 0), 0u) << step;
  EXPECT_TRUE(step.ends_with(",s"));
}


// --- Histograms ---

TEST(Telemetry, HistogramObservationsAccumulateExactStats) {
  Telemetry tel;
  tel.observe("measure.attempts", 1.0);
  tel.observe("measure.attempts", 2.0);
  tel.observe("measure.attempts", 4.0);
  const HistogramStats stats = tel.histogram_stats("measure.attempts");
  EXPECT_EQ(stats.count, 3u);
  EXPECT_DOUBLE_EQ(stats.sum, 7.0);
  EXPECT_DOUBLE_EQ(stats.min, 1.0);
  EXPECT_DOUBLE_EQ(stats.max, 4.0);
  EXPECT_EQ(stats.buckets.size(), kHistogramBuckets);
  const double p50 = stats.quantile(0.5);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p50, 4.0);
  EXPECT_EQ(tel.histograms().size(), 1u);
}

TEST(Telemetry, HistogramUnknownNameIsEmpty) {
  Telemetry tel;
  const HistogramStats stats = tel.histogram_stats("never.observed");
  EXPECT_EQ(stats.count, 0u);
  EXPECT_TRUE(stats.buckets.empty());
}

TEST(Telemetry, HistogramRejectsNonFiniteObservations) {
  Telemetry tel;
  EXPECT_THROW(tel.observe("h", std::numeric_limits<double>::infinity()),
               PreconditionError);
  EXPECT_THROW(tel.observe("h", std::numeric_limits<double>::quiet_NaN()),
               PreconditionError);
}

TEST(Telemetry, HistogramEightThreadStressKeepsExactCountAndSum) {
  // Integer-valued observations sum exactly in a double, so the stress
  // test can assert bitwise-exact count and sum across 8 writers.
  Telemetry tel;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&tel, t] {
      for (int i = 0; i < kPerThread; ++i) {
        tel.observe("stress", static_cast<double>(1 + (t + i) % 7));
        tel.observe("stress.other", 2.0);
      }
    });
  }
  for (auto& w : workers) w.join();
  const HistogramStats stats = tel.histogram_stats("stress");
  EXPECT_EQ(stats.count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  double expected_sum = 0.0;
  std::uint64_t bucketed = 0;
  for (int t = 0; t < kThreads; ++t)
    for (int i = 0; i < kPerThread; ++i)
      expected_sum += static_cast<double>(1 + (t + i) % 7);
  EXPECT_DOUBLE_EQ(stats.sum, expected_sum);
  for (std::uint64_t n : stats.buckets) bucketed += n;
  EXPECT_EQ(bucketed, stats.count);
  EXPECT_EQ(tel.histogram_stats("stress.other").count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Telemetry, HistogramMergeIsAssociativeAndMatchesSerial) {
  // The same observations fed serially, or split over children merged
  // in either grouping, must land on identical stats (integer values,
  // so even the double sum is exact under any order).
  const std::vector<double> values{1, 3, 3, 7, 20, 100, 5000, 2, 2, 41};
  Telemetry serial;
  for (double v : values) serial.observe("h", v);

  Telemetry a, b, c;
  for (std::size_t i = 0; i < values.size(); ++i) {
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).observe("h", values[i]);
  }
  // (a <- b) <- c
  Telemetry left;
  for (std::size_t i = 0; i < values.size(); i += 3)
    left.observe("h", values[i]);
  left.merge(b, {});
  left.merge(c, {});
  // a <- (b <- c)
  Telemetry right;
  for (std::size_t i = 0; i < values.size(); i += 3)
    right.observe("h", values[i]);
  Telemetry bc;
  bc.merge(b, {});
  bc.merge(c, {});
  right.merge(bc, {});

  const HistogramStats expect = serial.histogram_stats("h");
  for (const Telemetry* tel : {&left, &right}) {
    const HistogramStats got = tel->histogram_stats("h");
    EXPECT_EQ(got.count, expect.count);
    EXPECT_DOUBLE_EQ(got.sum, expect.sum);
    EXPECT_DOUBLE_EQ(got.min, expect.min);
    EXPECT_DOUBLE_EQ(got.max, expect.max);
    EXPECT_EQ(got.buckets, expect.buckets);
  }
}

TEST(Telemetry, SummaryEventNestsTimingHistogramsUnderTiming) {
  Telemetry tel;
  tel.observe("measure.attempts", 2.0);
  tel.observe("timing.serve.step_s", 0.25);
  const json::Value summary = tel.summary_event().to_json();
  // Deterministic histogram stats are plain fields...
  EXPECT_EQ(summary.at("hist.measure.attempts.count").as_int(), 1);
  EXPECT_DOUBLE_EQ(summary.at("hist.measure.attempts.sum").as_double(),
                   2.0);
  EXPECT_TRUE(summary.contains("hist.measure.attempts.p99"));
  // ...while every stat of a timing.* histogram lives under `timing`,
  // so the determinism gates strip it with the other wall clocks.
  EXPECT_FALSE(summary.contains("hist.timing.serve.step_s.count"));
  const json::Value& timing = summary.at("timing");
  EXPECT_TRUE(timing.contains("hist.timing.serve.step_s.count"));
  EXPECT_TRUE(timing.contains("hist.timing.serve.step_s.p50"));
  json::Value stripped = summary;
  stripped.remove_recursive("timing");
  EXPECT_FALSE(stripped.dump().find("step_s") != std::string::npos);
}

TEST(ScopedSpanTest, NoEventsRecordsOnceAndNullIsANoOp) {
  // A silent span is the histogram timer: span `unit` is the histogram
  // `timing.unit_s`.
  Telemetry tel;
  {
    ScopedSpan timer(&tel, "unit", ScopedSpan::kNoEvents);
    const double elapsed = timer.stop();
    EXPECT_GE(elapsed, 0.0);
    EXPECT_EQ(timer.stop(), elapsed);  // idempotent: no second record
  }
  EXPECT_EQ(tel.histogram_stats("timing.unit_s").count, 1u);
  ScopedSpan null_timer(nullptr, "ignored", ScopedSpan::kNoEvents);
  EXPECT_EQ(null_timer.stop(), 0.0);
}

TEST(Telemetry, MergeAddsSpanBuckets) {
  Telemetry parent, child;
  for (int i = 0; i < 3; ++i) ScopedSpan(&parent, "work").stop();
  for (int i = 0; i < 2; ++i) ScopedSpan(&child, "work").stop();
  const HistogramStats before = parent.histogram_stats("timing.work_s");
  const HistogramStats theirs = child.histogram_stats("timing.work_s");
  parent.merge(child);
  const HistogramStats after = parent.histogram_stats("timing.work_s");
  EXPECT_EQ(after.count, 5u);
  EXPECT_EQ(after.sum, before.sum + theirs.sum);
  ASSERT_EQ(after.buckets.size(), kHistogramBuckets);
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    EXPECT_EQ(after.buckets[i], before.buckets[i] + theirs.buckets[i]) << i;
  }
  // The merged span is still a span: its count stays a plain field.
  EXPECT_EQ(parent.summary_event().to_json().at("work.count").as_int(), 5);
}

// --- Flush propagation ---

TEST(MultiTraceSinkTest, FlushPropagatesToEverySink) {
  RecordingSink a, b;
  MultiTraceSink multi({&a, &b});
  multi.flush();
  EXPECT_EQ(a.flushes, 1);
  EXPECT_EQ(b.flushes, 1);
}

TEST(JsonlTraceSinkTest, FlushMakesLinesVisibleBeforeDestruction) {
  const std::string path =
      testing::TempDir() + "/telemetry_flush_test.jsonl";
  JsonlTraceSink sink(path);
  TraceEvent event("flush.probe");
  event.field("n", std::uint64_t{1});
  sink.write(event);
  sink.flush();
  // Read while the sink is still alive: flush alone must have pushed
  // the bytes to the file.
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("flush.probe"), std::string::npos);
}

// --- Causal spans ---

TEST(SpanIdHexTest, Renders16LowercaseHexDigits) {
  EXPECT_EQ(span_id_hex(0), "0000000000000000");
  EXPECT_EQ(span_id_hex(0xdeadbeef), "00000000deadbeef");
  EXPECT_EQ(span_id_hex(~std::uint64_t{0}), "ffffffffffffffff");
}

TEST(Mix64Test, IsDeterministicAndWellMixed) {
  EXPECT_EQ(mix64(42), mix64(42));
  EXPECT_NE(mix64(42), mix64(43));
  EXPECT_NE(mix64(0), 0u);  // the finalizer moves even zero
}

TEST(CausalSpanTest, EmitsPairedBeginEndWithHierarchicalIds) {
  RecordingSink sink;
  Telemetry tel(&sink);
  tel.seed_trace(42);
  {
    ScopedSpan outer(&tel, "outer");
    ScopedSpan inner(&tel, "inner");
  }
  ASSERT_EQ(sink.lines.size(), 4u);
  const json::Value outer_b = parsed(sink.lines[0]);
  const json::Value inner_b = parsed(sink.lines[1]);
  const json::Value inner_e = parsed(sink.lines[2]);
  const json::Value outer_e = parsed(sink.lines[3]);
  EXPECT_EQ(outer_b.at("event").as_string(), "span.begin");
  EXPECT_EQ(outer_b.at("span").as_string(), "outer");
  EXPECT_EQ(inner_e.at("event").as_string(), "span.end");
  EXPECT_EQ(inner_e.at("span").as_string(), "inner");
  EXPECT_EQ(outer_e.at("span").as_string(), "outer");
  // ids are 16-hex-digit strings; the inner span parents on the outer.
  EXPECT_EQ(outer_b.at("span_id").as_string().size(), 16u);
  EXPECT_EQ(inner_b.at("parent_span_id").as_string(),
            outer_b.at("span_id").as_string());
  EXPECT_EQ(inner_e.at("span_id").as_string(),
            inner_b.at("span_id").as_string());
  // All four share the seed-derived trace id, and the end events carry
  // wall-clock only under `timing`.
  for (const auto& line : sink.lines) {
    const json::Value v = parsed(line);
    EXPECT_EQ(v.at("trace_id").as_string(),
              span_id_hex(mix64(42)));
    EXPECT_TRUE(v.contains("timing"));
  }
  // Both spans also accumulated into their histograms.
  EXPECT_EQ(tel.histogram_stats("timing.outer_s").count, 1u);
  EXPECT_EQ(tel.histogram_stats("timing.inner_s").count, 1u);
}

TEST(CausalSpanTest, SeededTracesAreByteIdenticalModuloTiming) {
  const auto run = [] {
    RecordingSink sink;
    Telemetry tel(&sink);
    tel.seed_trace(7);
    {
      ScopedSpan a(&tel, "step");
      { ScopedSpan b(&tel, "fit"); }
      { ScopedSpan c(&tel, "predict"); }
    }
    std::vector<std::string> out;
    for (const auto& line : sink.lines) {
      json::Value v = json::Value::parse(line);
      v.remove_recursive("timing");
      out.push_back(v.dump());
    }
    return out;
  };
  EXPECT_EQ(run(), run());
}

TEST(CausalSpanTest, AdoptedStrandsGetDistinctDeterministicIds) {
  RecordingSink sink;
  Telemetry parent(&sink);
  parent.seed_trace(9);
  TraceContext root;
  {
    ScopedSpan span(&parent, "evaluate");
    root = span.context();
  }
  const auto strand_first_id = [&](std::uint64_t strand) {
    RecordingSink child_sink;
    Telemetry child(&child_sink);
    child.adopt_trace(root, strand);
    { ScopedSpan s(&child, "replication"); }
    return parsed(child_sink.lines[0]);
  };
  const json::Value a = strand_first_id(1);
  const json::Value b = strand_first_id(2);
  const json::Value a_again = strand_first_id(1);
  // Same trace, distinct id namespaces per strand, reproducible.
  EXPECT_EQ(a.at("trace_id").as_string(), b.at("trace_id").as_string());
  EXPECT_NE(a.at("span_id").as_string(), b.at("span_id").as_string());
  EXPECT_EQ(a.at("span_id").as_string(),
            a_again.at("span_id").as_string());
  // A strand's root span parents on the adopted context.
  EXPECT_EQ(a.at("parent_span_id").as_string(),
            span_id_hex(root.span_id));
  EXPECT_EQ(a.at("strand").as_int(), 1);
  EXPECT_EQ(b.at("strand").as_int(), 2);
}

TEST(CausalSpanTest, UnobservedTelemetryChargesSpanWithoutEvents) {
  Telemetry tel;  // no sink, no recorder
  EXPECT_FALSE(tel.observed());
  { ScopedSpan span(&tel, "quiet"); }
  EXPECT_EQ(tel.histogram_stats("timing.quiet_s").count, 1u);
  ScopedSpan null_span(nullptr, "ignored");
  EXPECT_EQ(null_span.stop(), 0.0);
}

// --- Flight recorder ---

TEST(FlightRecorderTest, RingKeepsTheMostRecentEvents) {
  FlightRecorder rec(3);
  for (int i = 0; i < 5; ++i) {
    rec.record("{\"n\":" + std::to_string(i) + "}");
  }
  EXPECT_EQ(rec.recorded(), 5u);
  EXPECT_EQ(rec.size(), 3u);
  EXPECT_EQ(rec.dropped(), 2u);
  const auto lines = rec.snapshot();
  ASSERT_EQ(lines.size(), 3u);  // oldest-first: 2, 3, 4
  EXPECT_EQ(lines[0], "{\"n\":2}");
  EXPECT_EQ(lines[2], "{\"n\":4}");
}

TEST(FlightRecorderTest, CapturesTelemetryEventsWithoutASink) {
  FlightRecorder rec(8);
  Telemetry tel;
  tel.set_flight_recorder(&rec);
  EXPECT_TRUE(tel.observed());
  tel.seed_trace(5);
  { ScopedSpan span(&tel, "recorded"); }
  const auto lines = rec.snapshot();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(parsed(lines[0]).at("event").as_string(), "span.begin");
  EXPECT_EQ(parsed(lines[1]).at("event").as_string(), "span.end");
}

TEST(FlightRecorderTest, RecorderLinesMatchSinkLinesExactly) {
  FlightRecorder rec(16);
  RecordingSink sink;
  Telemetry tel(&sink);
  tel.set_flight_recorder(&rec);
  tel.seed_trace(3);
  {
    ScopedSpan a(&tel, "one");
    ScopedSpan b(&tel, "two");
  }
  EXPECT_EQ(rec.snapshot(), sink.lines);
}

TEST(FlightRecorderTest, OversizeLinesBecomeAStubEvent) {
  FlightRecorder rec(2);
  rec.record(std::string(8192, 'x'));
  const auto lines = rec.snapshot();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("flight.oversize"), std::string::npos);
}

TEST(FlightRecorderTest, RegistryDumpNamesEveryRecorder) {
  FlightRecorder rec(4);
  rec.record("{\"event\":\"probe\"}");
  register_crash_recorder(&rec, "test session!");  // label is sanitized
  const std::string dump = dump_registered_recorders();
  unregister_crash_recorder(&rec);
  EXPECT_NE(dump.find("\"event\":\"flight.recorder\""), std::string::npos);
  EXPECT_NE(dump.find("test_session_"), std::string::npos);
  EXPECT_NE(dump.find("{\"event\":\"probe\"}"), std::string::npos);
  // After unregistering, the recorder no longer appears.
  EXPECT_EQ(dump_registered_recorders().find("test_session_"),
            std::string::npos);
}

TEST(JsonlTraceSinkTest, FsyncOnFlushKeepsLinesReadable) {
  const std::string path =
      testing::TempDir() + "/telemetry_fsync_test.jsonl";
  JsonlTraceSink sink(path, /*fsync_on_flush=*/true);
  TraceEvent event("durable.probe");
  sink.write(event);
  sink.flush();
  // The torn-tail contract: after flush the file ends at a complete
  // line, never mid-record.
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  ASSERT_FALSE(contents.empty());
  EXPECT_EQ(contents.back(), '\n');
  EXPECT_NE(contents.find("durable.probe"), std::string::npos);
}

}  // namespace
}  // namespace ceal::telemetry
