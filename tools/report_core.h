// Metric extraction and baseline comparison for ceal_report.
//
// Header-only so the unit tests (tests/tools/test_report.cc) exercise the
// aggregation and regression logic without shelling out to the tool.
//
// Two input kinds feed one flat metric namespace:
//  * trace JSONL files (`ceal_tune --trace`): the `telemetry.summary`
//    events' counters, gauges, and span counts become "trace.<name>"
//    metrics, summed across all ingested files; derived metrics (switch
//    iteration, failure rate, fit/predict throughput) are computed from
//    those sums. Histogram stats ("hist.<name>.<stat>" fields,
//    core/telemetry.h summary_event; span `x` is `hist.timing.x_s.*`)
//    aggregate by stat kind: .count/.sum add, .max/.p50/.p90/.p99 take
//    the max across files (a quantile of merged runs is bounded by the
//    worst per-run quantile's bucket, so the max is the honest
//    loud-side aggregate), .min takes the min.
//  * google-benchmark JSON files (`BENCH_*.json` from bench/): each
//    benchmark's cpu/real time becomes "bench.<name>.cpu_time" /
//    ".real_time", and every custom numeric counter (state.counters,
//    items_per_second, ...) becomes "bench.<name>.<counter>",
//    preferring the `_median` aggregate when repetitions were run.
//    The "ceal" metadata header annotate_bench_json() adds contributes
//    "bench.ceal.peak_rss_mb" (max across files — RSS is a high-water
//    mark, so the max is the honest aggregate).
//
// compare() evaluates current vs baseline per metric with a relative
// tolerance; whether a delta is a regression depends on the metric's
// direction (times and failure rates are lower-better, throughputs
// higher-better). Metrics present on only one side are reported but
// never regressions — runs may legitimately differ in coverage.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/json.h"

namespace ceal::tools::report {

/// Flat metric namespace: name -> value.
using MetricMap = std::map<std::string, double>;

/// Direction of goodness, by naming convention: throughputs
/// (trace "*_per_s", google-benchmark "*_per_second"), recall
/// fractions (bench_pool_scale's recall_at_64), and per-iteration
/// success counts (trace.hist.iteration.batch_ok.*) improve upward,
/// everything else (counts, seconds, bytes, rates) is treated as
/// lower-better. Pure-count metrics rarely regress meaningfully, but
/// treating growth as suspect errs on the loud side.
inline bool higher_is_better(std::string_view name) {
  return name.ends_with("_per_s") || name.ends_with("_per_second") ||
         name.find("recall") != std::string_view::npos ||
         name.find("batch_ok") != std::string_view::npos;
}

/// Baselines smaller than this are noise; comparing against them would
/// turn rounding jitter into huge relative deltas.
inline constexpr double kMinBaseline = 1e-12;

/// Accumulates metrics over any number of trace files, then finish()
/// adds the derived metrics on top of the raw sums.
class TraceAccumulator {
 public:
  /// Ingests one trace's events (tools/trace_io.h reader output).
  void add(const std::vector<json::Value>& events) {
    for (const json::Value& event : events) {
      const json::Value* name = event.find("event");
      if (name == nullptr) continue;
      if (name->as_string() == "telemetry.summary") {
        add_summary(event);
      } else if (name->as_string() == "ceal.switch") {
        if (const json::Value* iter = event.find("iteration")) {
          switch_iteration_sum_ += iter->as_double();
          ++switch_count_;
        }
      }
    }
  }

  /// Raw sums plus derived metrics.
  MetricMap finish() const {
    MetricMap out = sums_;
    if (switch_count_ > 0) {
      out["trace.ceal.switch_iteration.mean"] =
          switch_iteration_sum_ / static_cast<double>(switch_count_);
    }
    const double requests = value_or(out, "trace.measure.requests", 0.0);
    if (requests > 0.0) {
      out["trace.measure.failure_rate"] =
          (value_or(out, "trace.measure.failed", 0.0) +
           value_or(out, "trace.measure.censored", 0.0)) /
          requests;
    }
    // The boosted trees record no spans: their rounds and predicted rows
    // are timed by the tuner spans around every fit and batch.
    add_throughput(out, "trace.gbt.fit_rounds_per_s", "trace.gbt.rounds",
                   "trace.hist.timing.surrogate.fit_s.sum");
    add_throughput(out, "trace.gbt.predict_rows_per_s",
                   "trace.gbt.predict.rows",
                   "trace.hist.timing.surrogate.predict_s.sum");
    add_throughput(out, "trace.surrogate.fits_per_s", "trace.surrogate.fits",
                   "trace.hist.timing.surrogate.fit_s.sum");
    return out;
  }

  bool empty() const { return sums_.empty() && switch_count_ == 0; }

 private:
  // Histogram summary fields carry order statistics, which must not be
  // summed across files the way counters are.
  enum class Aggregate { kSum, kMax, kMin };

  static Aggregate aggregate_kind(std::string_view key) {
    if (key.find("hist.") == std::string_view::npos) return Aggregate::kSum;
    if (key.ends_with(".max") || key.ends_with(".p50") ||
        key.ends_with(".p90") || key.ends_with(".p99"))
      return Aggregate::kMax;
    if (key.ends_with(".min")) return Aggregate::kMin;
    return Aggregate::kSum;  // .count / .sum accumulate
  }

  void accumulate(const std::string& key, double value) {
    const std::string metric = "trace." + key;
    switch (aggregate_kind(key)) {
      case Aggregate::kSum:
        sums_[metric] += value;
        break;
      case Aggregate::kMax: {
        const auto it = sums_.find(metric);
        sums_[metric] = it == sums_.end() ? value
                                          : std::max(it->second, value);
        break;
      }
      case Aggregate::kMin: {
        const auto it = sums_.find(metric);
        sums_[metric] = it == sums_.end() ? value
                                          : std::min(it->second, value);
        break;
      }
    }
  }

  void add_summary(const json::Value& summary) {
    for (const auto& [key, value] : summary.members()) {
      if (key == "event" || key == "seq") continue;
      if (key == "timing") {
        for (const auto& [tkey, tvalue] : value.members()) {
          accumulate(tkey, tvalue.as_double());
        }
        continue;
      }
      if (value.kind() == json::Value::Kind::kNumber) {
        accumulate(key, value.as_double());
      }
    }
  }

  static double value_or(const MetricMap& m, const std::string& key,
                         double fallback) {
    const auto it = m.find(key);
    return it == m.end() ? fallback : it->second;
  }

  static void add_throughput(MetricMap& out, const std::string& name,
                             const std::string& count_key,
                             const std::string& total_key) {
    const double count = value_or(out, count_key, 0.0);
    const double total = value_or(out, total_key, 0.0);
    if (count > 0.0 && total > kMinBaseline) out[name] = count / total;
  }

  MetricMap sums_;
  double switch_iteration_sum_ = 0.0;
  std::size_t switch_count_ = 0;
};

/// A parsed JSON document is a google-benchmark output file when it has
/// the "benchmarks" array.
inline bool is_bench_json(const json::Value& root) {
  return root.is_object() && root.contains("benchmarks");
}

/// Bookkeeping keys google-benchmark writes on every entry; numeric
/// members outside this set are the benchmark's own counters
/// (state.counters, items_per_second from SetItemsProcessed, ...).
inline bool is_standard_bench_key(std::string_view key) {
  return key == "repetitions" || key == "repetition_index" ||
         key == "threads" || key == "iterations" || key == "family_index" ||
         key == "per_family_instance_index";
}

/// Extracts "bench.<name>.cpu_time" / ".real_time" plus one
/// "bench.<name>.<counter>" metric per custom numeric counter. With
/// --benchmark_repetitions the file carries per-repetition entries plus
/// aggregates; only the `median` aggregate is used then (repetition
/// noise is exactly what the median is there to suppress). The
/// top-level "ceal" header (bench/common.h annotate_bench_json)
/// contributes "bench.ceal.peak_rss_mb" as a max across ingested files.
inline void add_bench_metrics(const json::Value& root, MetricMap& out) {
  const json::Value& benchmarks = root.at("benchmarks");
  bool has_median = false;
  for (std::size_t i = 0; i < benchmarks.size(); ++i) {
    const json::Value* agg = benchmarks.at(i).find("aggregate_name");
    if (agg != nullptr && agg->as_string() == "median") has_median = true;
  }
  for (std::size_t i = 0; i < benchmarks.size(); ++i) {
    const json::Value& b = benchmarks.at(i);
    const json::Value* agg = b.find("aggregate_name");
    if (has_median) {
      if (agg == nullptr || agg->as_string() != "median") continue;
    } else if (agg != nullptr) {
      continue;  // unexpected aggregate without a median: skip
    }
    const json::Value* name = b.find(has_median ? "run_name" : "name");
    if (name == nullptr) name = b.find("name");
    if (name == nullptr) continue;
    for (const auto& [key, value] : b.members()) {
      if (value.kind() != json::Value::Kind::kNumber) continue;
      if (is_standard_bench_key(key)) continue;
      out["bench." + name->as_string() + "." + key] = value.as_double();
    }
  }
  if (const json::Value* meta = root.find("ceal")) {
    if (const json::Value* rss = meta->find("peak_rss_mb")) {
      if (rss->kind() == json::Value::Kind::kNumber &&
          rss->as_double() > 0.0) {
        double& slot = out["bench.ceal.peak_rss_mb"];
        slot = std::max(slot, rss->as_double());
      }
    }
  }
}

/// One metric's baseline-vs-current verdict.
struct Comparison {
  std::string name;
  bool in_baseline = false;
  bool in_current = false;
  double baseline = 0.0;
  double current = 0.0;
  /// (current - baseline) / |baseline|; 0 when not comparable.
  double rel_delta = 0.0;
  /// Beyond tolerance in the bad direction for this metric.
  bool regression = false;
  /// Beyond tolerance in the good direction.
  bool improvement = false;
};

/// Compares every metric seen on either side. A metric regresses when
/// its relative delta exceeds `tolerance` in the bad direction and the
/// baseline is large enough to compare against (>= kMinBaseline).
inline std::vector<Comparison> compare(const MetricMap& baseline,
                                       const MetricMap& current,
                                       double tolerance) {
  std::vector<Comparison> out;
  auto bi = baseline.begin();
  auto ci = current.begin();
  while (bi != baseline.end() || ci != current.end()) {
    Comparison c;
    const bool take_b =
        ci == current.end() ||
        (bi != baseline.end() && bi->first <= ci->first);
    const bool take_c =
        bi == baseline.end() ||
        (ci != current.end() && ci->first <= bi->first);
    if (take_b) {
      c.name = bi->first;
      c.in_baseline = true;
      c.baseline = bi->second;
      ++bi;
    }
    if (take_c) {
      c.name = ci->first;
      c.in_current = true;
      c.current = ci->second;
      ++ci;
    }
    if (c.in_baseline && c.in_current &&
        std::abs(c.baseline) >= kMinBaseline) {
      c.rel_delta = (c.current - c.baseline) / std::abs(c.baseline);
      const double bad = higher_is_better(c.name) ? -c.rel_delta
                                                  : c.rel_delta;
      c.regression = bad > tolerance;
      c.improvement = bad < -tolerance;
    }
    out.push_back(std::move(c));
  }
  return out;
}

}  // namespace ceal::tools::report
