// Metric extraction and regression logic of ceal_report
// (tools/report_core.h): trace summaries sum across files and grow the
// derived metrics, bench JSON prefers the median aggregate, and
// compare() flags regressions by each metric's direction of goodness.
#include "tools/report_core.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/json.h"

namespace ceal::tools::report {
namespace {

std::vector<json::Value> events_of(const std::vector<std::string>& lines) {
  std::vector<json::Value> out;
  out.reserve(lines.size());
  for (const auto& line : lines) out.push_back(json::Value::parse(line));
  return out;
}

TEST(TraceAccumulator, SumsSummariesAcrossFilesAndDerivesRates) {
  TraceAccumulator acc;
  EXPECT_TRUE(acc.empty());
  acc.add(events_of({
      R"({"event":"ceal.switch","iteration":10})",
      R"({"event":"telemetry.summary","seq":9,"measure.requests":20,)"
      R"("measure.failed":2,"gbt.rounds":100,)"
      R"("timing":{"hist.timing.surrogate.fit_s.sum":0.5}})",
  }));
  acc.add(events_of({
      R"({"event":"ceal.switch","iteration":14})",
      R"({"event":"telemetry.summary","seq":3,"measure.requests":10,)"
      R"("measure.censored":1,"gbt.rounds":100,)"
      R"("timing":{"hist.timing.surrogate.fit_s.sum":0.5}})",
  }));
  EXPECT_FALSE(acc.empty());

  const MetricMap m = acc.finish();
  EXPECT_DOUBLE_EQ(m.at("trace.measure.requests"), 30.0);
  EXPECT_DOUBLE_EQ(m.at("trace.gbt.rounds"), 200.0);
  EXPECT_DOUBLE_EQ(m.at("trace.hist.timing.surrogate.fit_s.sum"), 1.0);
  // Derived: switch mean over both traces, failure rate over the sums,
  // fit throughput from rounds / surrogate fit seconds.
  EXPECT_DOUBLE_EQ(m.at("trace.ceal.switch_iteration.mean"), 12.0);
  EXPECT_DOUBLE_EQ(m.at("trace.measure.failure_rate"), 3.0 / 30.0);
  EXPECT_DOUBLE_EQ(m.at("trace.gbt.fit_rounds_per_s"), 200.0);
  // seq is bookkeeping, not a metric.
  EXPECT_EQ(m.count("trace.seq"), 0u);
}

MetricMap metrics_of(const std::string& summary_line) {
  TraceAccumulator acc;
  acc.add(events_of({summary_line}));
  return acc.finish();
}

TEST(TraceAccumulator, DerivedThroughputsMatchAcrossSummaryFormats) {
  // One session's summary, and the same totals split over two trace
  // files (e.g. two replications): the derived rates must agree.
  const MetricMap one_file = metrics_of(
      R"({"event":"telemetry.summary","gbt.rounds":300,)"
      R"("gbt.predict.rows":8000,"surrogate.fits":3,)"
      R"("timing":{"hist.timing.surrogate.predict_s.sum":0.004,)"
      R"("hist.timing.surrogate.fit_s.sum":0.012}})");
  TraceAccumulator split;
  split.add(events_of({
      R"({"event":"telemetry.summary","gbt.rounds":100,)"
      R"("gbt.predict.rows":3000,"surrogate.fits":1,)"
      R"("timing":{"hist.timing.surrogate.predict_s.sum":0.001,)"
      R"("hist.timing.surrogate.fit_s.sum":0.004}})"}));
  split.add(events_of({
      R"({"event":"telemetry.summary","gbt.rounds":200,)"
      R"("gbt.predict.rows":5000,"surrogate.fits":2,)"
      R"("timing":{"hist.timing.surrogate.predict_s.sum":0.003,)"
      R"("hist.timing.surrogate.fit_s.sum":0.008}})"}));
  const MetricMap two_files = split.finish();
  for (const char* name :
       {"trace.gbt.fit_rounds_per_s", "trace.gbt.predict_rows_per_s",
        "trace.surrogate.fits_per_s"}) {
    ASSERT_EQ(one_file.count(name), 1u) << name;
    ASSERT_EQ(two_files.count(name), 1u) << name;
    EXPECT_DOUBLE_EQ(one_file.at(name), two_files.at(name)) << name;
  }
  EXPECT_DOUBLE_EQ(one_file.at("trace.gbt.fit_rounds_per_s"), 25000.0);
  EXPECT_DOUBLE_EQ(one_file.at("trace.gbt.predict_rows_per_s"), 2e6);
  EXPECT_DOUBLE_EQ(one_file.at("trace.surrogate.fits_per_s"), 250.0);
}

TEST(TraceAccumulator, NoDerivedMetricsWithoutTheirInputs) {
  TraceAccumulator acc;
  acc.add(events_of({R"({"event":"telemetry.summary","tune.sessions":1})"}));
  const MetricMap m = acc.finish();
  EXPECT_EQ(m.count("trace.measure.failure_rate"), 0u);
  EXPECT_EQ(m.count("trace.gbt.fit_rounds_per_s"), 0u);
  EXPECT_EQ(m.count("trace.ceal.switch_iteration.mean"), 0u);
}

TEST(TraceAccumulator, HistogramStatsAggregateByKindNotBySum) {
  // hist.<name>.count/.sum add across files; order statistics do not:
  // .max/.p50/.p90/.p99 take the max (loud-side), .min the min. The
  // same rules apply inside the timing object (timing.* histograms).
  TraceAccumulator acc;
  acc.add(events_of({
      R"({"event":"telemetry.summary","hist.measure.attempts.count":10,)"
      R"("hist.measure.attempts.sum":14,"hist.measure.attempts.min":1,)"
      R"("hist.measure.attempts.max":3,"hist.measure.attempts.p99":3,)"
      R"("timing":{"hist.timing.serve.step_s.count":4,)"
      R"("hist.timing.serve.step_s.p50":0.2}})",
  }));
  acc.add(events_of({
      R"({"event":"telemetry.summary","hist.measure.attempts.count":5,)"
      R"("hist.measure.attempts.sum":9,"hist.measure.attempts.min":2,)"
      R"("hist.measure.attempts.max":5,"hist.measure.attempts.p99":2,)"
      R"("timing":{"hist.timing.serve.step_s.count":2,)"
      R"("hist.timing.serve.step_s.p50":0.1}})",
  }));
  const MetricMap m = acc.finish();
  EXPECT_DOUBLE_EQ(m.at("trace.hist.measure.attempts.count"), 15.0);
  EXPECT_DOUBLE_EQ(m.at("trace.hist.measure.attempts.sum"), 23.0);
  EXPECT_DOUBLE_EQ(m.at("trace.hist.measure.attempts.min"), 1.0);
  EXPECT_DOUBLE_EQ(m.at("trace.hist.measure.attempts.max"), 5.0);
  EXPECT_DOUBLE_EQ(m.at("trace.hist.measure.attempts.p99"), 3.0);
  EXPECT_DOUBLE_EQ(m.at("trace.hist.timing.serve.step_s.count"), 6.0);
  EXPECT_DOUBLE_EQ(m.at("trace.hist.timing.serve.step_s.p50"), 0.2);
}

TEST(Compare, HistogramMetricsAreDirectionAware) {
  // Latency quantiles regress upward; batch_ok (successes per
  // iteration) regresses downward like recalls and throughputs.
  MetricMap baseline{{"trace.hist.timing.serve.step_s.p99", 1.0},
                     {"trace.hist.iteration.batch_ok.p50", 4.0}};
  MetricMap current{{"trace.hist.timing.serve.step_s.p99", 2.0},
                    {"trace.hist.iteration.batch_ok.p50", 2.0}};
  const auto rows = compare(baseline, current, 0.10);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].name, "trace.hist.iteration.batch_ok.p50");
  EXPECT_TRUE(rows[0].regression);  // fewer batch successes is bad
  EXPECT_EQ(rows[1].name, "trace.hist.timing.serve.step_s.p99");
  EXPECT_TRUE(rows[1].regression);  // higher latency is bad
}

TEST(BenchMetrics, PlainEntriesWhenNoAggregates) {
  const json::Value root = json::Value::parse(
      R"({"benchmarks":[)"
      R"({"name":"BM_Fit","cpu_time":12.5,"real_time":13.0}]})");
  ASSERT_TRUE(is_bench_json(root));
  MetricMap m;
  add_bench_metrics(root, m);
  EXPECT_DOUBLE_EQ(m.at("bench.BM_Fit.cpu_time"), 12.5);
  EXPECT_DOUBLE_EQ(m.at("bench.BM_Fit.real_time"), 13.0);
}

TEST(BenchMetrics, MedianAggregateSuppressesPerRepetitionEntries) {
  const json::Value root = json::Value::parse(
      R"({"benchmarks":[)"
      R"({"name":"BM_Fit/repeats:3","run_name":"BM_Fit","cpu_time":11.0},)"
      R"({"name":"BM_Fit/repeats:3","run_name":"BM_Fit","cpu_time":99.0},)"
      R"({"name":"BM_Fit_mean","run_name":"BM_Fit",)"
      R"("aggregate_name":"mean","cpu_time":55.0},)"
      R"({"name":"BM_Fit_median","run_name":"BM_Fit",)"
      R"("aggregate_name":"median","cpu_time":12.0,"real_time":12.5}]})");
  MetricMap m;
  add_bench_metrics(root, m);
  ASSERT_EQ(m.size(), 2u);  // only the median's two times
  EXPECT_DOUBLE_EQ(m.at("bench.BM_Fit.cpu_time"), 12.0);
  EXPECT_DOUBLE_EQ(m.at("bench.BM_Fit.real_time"), 12.5);
}

TEST(BenchMetrics, CustomCountersBecomeMetricsButBookkeepingDoesNot) {
  const json::Value root = json::Value::parse(
      R"({"benchmarks":[)"
      R"({"name":"BM_Pool/1024","run_type":"iteration",)"
      R"("repetitions":1,"repetition_index":0,"threads":1,)"
      R"("family_index":0,"per_family_instance_index":0,)"
      R"("iterations":50,"real_time":9.0,"cpu_time":8.0,)"
      R"("time_unit":"ms","items_per_second":113777.0,)"
      R"("recall_at_64":0.984,"peak_rss_mb":91.5}]})");
  MetricMap m;
  add_bench_metrics(root, m);
  // The two times plus the three custom counters; iterations, thread
  // counts, and family indices are bookkeeping, not metrics.
  EXPECT_EQ(m.size(), 5u);
  EXPECT_DOUBLE_EQ(m.at("bench.BM_Pool/1024.items_per_second"), 113777.0);
  EXPECT_DOUBLE_EQ(m.at("bench.BM_Pool/1024.recall_at_64"), 0.984);
  EXPECT_DOUBLE_EQ(m.at("bench.BM_Pool/1024.peak_rss_mb"), 91.5);
  EXPECT_EQ(m.count("bench.BM_Pool/1024.iterations"), 0u);
  EXPECT_EQ(m.count("bench.BM_Pool/1024.threads"), 0u);
}

TEST(BenchMetrics, CealHeaderPeakRssIsMaxAcrossFiles) {
  MetricMap m;
  add_bench_metrics(json::Value::parse(
                        R"({"ceal":{"peak_rss_mb":120.0},"benchmarks":[]})"),
                    m);
  add_bench_metrics(json::Value::parse(
                        R"({"ceal":{"peak_rss_mb":80.0},"benchmarks":[]})"),
                    m);
  EXPECT_DOUBLE_EQ(m.at("bench.ceal.peak_rss_mb"), 120.0);
  // Platforms without getrusage report 0: no metric then.
  MetricMap none;
  add_bench_metrics(json::Value::parse(
                        R"({"ceal":{"peak_rss_mb":0.0},"benchmarks":[]})"),
                    none);
  EXPECT_EQ(none.count("bench.ceal.peak_rss_mb"), 0u);
}

TEST(BenchMetrics, NonBenchDocumentsAreRecognised) {
  EXPECT_FALSE(is_bench_json(json::Value::parse(R"({"event":"x"})")));
  EXPECT_FALSE(is_bench_json(json::Value::parse("[1]")));
}

TEST(Compare, DirectionDependsOnTheMetricName) {
  // Times are lower-better: +30% is a regression at 10% tolerance.
  // Throughputs are higher-better: -30% is the regression there.
  const MetricMap base{{"trace.hist.timing.fit_s.sum", 1.0},
                       {"trace.gbt.fit_rounds_per_s", 100.0}};
  const MetricMap slower{{"trace.hist.timing.fit_s.sum", 1.3},
                         {"trace.gbt.fit_rounds_per_s", 70.0}};
  const auto rows = compare(base, slower, 0.1);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_TRUE(rows[0].regression);  // per_s down
  EXPECT_TRUE(rows[1].regression);  // span time up
  EXPECT_FALSE(rows[1].improvement);

  const MetricMap faster{{"trace.hist.timing.fit_s.sum", 0.7},
                         {"trace.gbt.fit_rounds_per_s", 130.0}};
  for (const auto& row : compare(base, faster, 0.1)) {
    EXPECT_FALSE(row.regression) << row.name;
    EXPECT_TRUE(row.improvement) << row.name;
  }
}

TEST(Compare, BenchCountersAreDirectionAware) {
  // Throughput (configs/sec) and recall are higher-better: a drop is
  // the regression. Peak RSS is lower-better: growth is the regression.
  const MetricMap base{{"bench.BM_Pool/1024.items_per_second", 100000.0},
                       {"bench.BM_Pool/1024.recall_at_64", 1.0},
                       {"bench.ceal.peak_rss_mb", 100.0}};
  const MetricMap worse{{"bench.BM_Pool/1024.items_per_second", 70000.0},
                        {"bench.BM_Pool/1024.recall_at_64", 0.5},
                        {"bench.ceal.peak_rss_mb", 140.0}};
  for (const auto& row : compare(base, worse, 0.1)) {
    EXPECT_TRUE(row.regression) << row.name;
    EXPECT_FALSE(row.improvement) << row.name;
  }
  const MetricMap better{{"bench.BM_Pool/1024.items_per_second", 140000.0},
                         {"bench.BM_Pool/1024.recall_at_64", 1.0},
                         {"bench.ceal.peak_rss_mb", 60.0}};
  std::size_t improved = 0;
  for (const auto& row : compare(base, better, 0.1)) {
    EXPECT_FALSE(row.regression) << row.name;
    improved += row.improvement ? 1 : 0;
  }
  EXPECT_EQ(improved, 2u);  // recall was already at its ceiling
}

TEST(Compare, WithinToleranceIsNeither) {
  const MetricMap base{{"trace.hist.timing.m_s.sum", 1.0}};
  const MetricMap cur{{"trace.hist.timing.m_s.sum", 1.05}};
  const auto rows = compare(base, cur, 0.1);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_FALSE(rows[0].regression);
  EXPECT_FALSE(rows[0].improvement);
  EXPECT_NEAR(rows[0].rel_delta, 0.05, 1e-12);
}

TEST(Compare, OneSidedMetricsAreReportedButNeverRegress) {
  const MetricMap base{{"trace.hist.timing.gone_s.sum", 1.0}};
  const MetricMap cur{{"trace.hist.timing.new_s.sum", 2.0}};
  const auto rows = compare(base, cur, 0.1);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_TRUE(rows[0].in_baseline);
  EXPECT_FALSE(rows[0].in_current);
  EXPECT_FALSE(rows[1].in_baseline);
  EXPECT_TRUE(rows[1].in_current);
  for (const auto& row : rows) EXPECT_FALSE(row.regression);
}

TEST(Compare, TinyBaselinesAreNotCompared) {
  const MetricMap base{{"m.count", 0.0}};
  const MetricMap cur{{"m.count", 5.0}};
  const auto rows = compare(base, cur, 0.1);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_FALSE(rows[0].regression);
  EXPECT_DOUBLE_EQ(rows[0].rel_delta, 0.0);
}

TEST(Compare, MergeWalkCoversDisjointAndSharedNamesInOrder) {
  const MetricMap base{{"a", 1.0}, {"c", 1.0}, {"d", 1.0}};
  const MetricMap cur{{"b", 1.0}, {"c", 2.0}, {"d", 1.0}};
  const auto rows = compare(base, cur, 0.5);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].name, "a");
  EXPECT_EQ(rows[1].name, "b");
  EXPECT_EQ(rows[2].name, "c");
  EXPECT_EQ(rows[3].name, "d");
  EXPECT_TRUE(rows[2].in_baseline && rows[2].in_current);
  EXPECT_TRUE(rows[2].regression);  // +100% > 50%, lower-better
}

}  // namespace
}  // namespace ceal::tools::report
