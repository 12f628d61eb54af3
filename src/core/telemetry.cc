#include "core/telemetry.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <functional>
#include <ostream>
#include <sstream>

#include "core/error.h"
#include "core/flight_recorder.h"
#include "core/stats.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define CEAL_TELEMETRY_POSIX 1
#endif

namespace ceal::telemetry {

double monotonic_seconds() {
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(now).count();
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string span_id_hex(std::uint64_t id) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[id & 0xF];
    id >>= 4;
  }
  return out;
}

namespace {

/// Crash-injection test hook: CEAL_CRASH_SIGSEGV_AFTER=N raises SIGSEGV
/// on the N-th emitted event, process-wide across all Telemetry
/// instances. Exercises the flight-recorder crash dump in run_tier1.sh;
/// unset (the default) costs one predictable branch per emit.
void maybe_crash_after_emit() {
  static const long crash_after = [] {
    const char* env = std::getenv("CEAL_CRASH_SIGSEGV_AFTER");
    return env == nullptr ? -1L : std::strtol(env, nullptr, 10);
  }();
  if (crash_after <= 0) return;
  static std::atomic<long> emitted{0};
  if (emitted.fetch_add(1, std::memory_order_relaxed) + 1 == crash_after) {
    std::raise(SIGSEGV);
  }
}

}  // namespace

TraceEvent& TraceEvent::field(std::string key, json::Value v) {
  fields_.emplace_back(std::move(key), std::move(v));
  return *this;
}

TraceEvent& TraceEvent::field(std::string key, bool v) {
  return field(std::move(key), json::Value::boolean(v));
}

TraceEvent& TraceEvent::field(std::string key, double v) {
  return field(std::move(key), json::Value::number(v));
}

TraceEvent& TraceEvent::field(std::string key, std::int64_t v) {
  return field(std::move(key), json::Value::number(v));
}

TraceEvent& TraceEvent::field(std::string key, std::uint64_t v) {
  return field(std::move(key), json::Value::number(v));
}

TraceEvent& TraceEvent::field(std::string key, int v) {
  return field(std::move(key),
               json::Value::number(static_cast<std::int64_t>(v)));
}

TraceEvent& TraceEvent::field(std::string key, const char* v) {
  return field(std::move(key), json::Value::string(v));
}

TraceEvent& TraceEvent::field(std::string key, std::string v) {
  return field(std::move(key), json::Value::string(std::move(v)));
}

TraceEvent& TraceEvent::field(std::string key,
                              std::span<const std::size_t> v) {
  json::Value arr = json::Value::array();
  for (const std::size_t x : v) {
    arr.push(json::Value::number(static_cast<std::uint64_t>(x)));
  }
  return field(std::move(key), std::move(arr));
}

TraceEvent& TraceEvent::field(std::string key, std::span<const double> v) {
  json::Value arr = json::Value::array();
  for (const double x : v) arr.push(json::Value::number(x));
  return field(std::move(key), std::move(arr));
}

TraceEvent& TraceEvent::timing(std::string key, double seconds) {
  timing_.emplace_back(std::move(key), seconds);
  return *this;
}

json::Value TraceEvent::to_json() const {
  json::Value obj = json::Value::object();
  obj.set("event", json::Value::string(name_));
  if (seq_) obj.set("seq", json::Value::number(*seq_));
  for (const auto& [key, value] : fields_) obj.set(key, value);
  if (!timing_.empty()) {
    json::Value t = json::Value::object();
    for (const auto& [key, seconds] : timing_) {
      t.set(key, json::Value::number(seconds));
    }
    obj.set("timing", std::move(t));
  }
  return obj;
}

JsonlTraceSink::JsonlTraceSink(const std::string& path, bool fsync_on_flush)
    : file_(path), path_(path), fsync_on_flush_(fsync_on_flush) {
  CEAL_EXPECT_MSG(file_.is_open(),
                  "cannot open trace file for writing: " + path);
  os_ = &file_;
}

JsonlTraceSink::~JsonlTraceSink() { flush(); }

void JsonlTraceSink::write(const TraceEvent& event) {
  std::lock_guard lock(mutex_);
  event.to_json().write(*os_);
  *os_ << '\n';
}

void JsonlTraceSink::flush() {
  std::lock_guard lock(mutex_);
  os_->flush();
#if defined(CEAL_TELEMETRY_POSIX)
  if (fsync_on_flush_ && !path_.empty()) {
    const int fd = ::open(path_.c_str(), O_WRONLY | O_CLOEXEC);
    if (fd >= 0) {
      ::fsync(fd);
      ::close(fd);
    }
  }
#endif
}

MultiTraceSink::MultiTraceSink(std::vector<TraceSink*> sinks)
    : sinks_(std::move(sinks)) {
  for (const TraceSink* s : sinks_) CEAL_EXPECT(s != nullptr);
}

void MultiTraceSink::write(const TraceEvent& event) {
  for (TraceSink* s : sinks_) s->write(event);
}

void MultiTraceSink::flush() {
  for (TraceSink* s : sinks_) s->flush();
}

void BufferTraceSink::write(const TraceEvent& event) {
  events_.push_back(event);
}

std::span<const double> histogram_upper_bounds() {
  static const std::array<double, kHistogramBounds> bounds = [] {
    std::array<double, kHistogramBounds> b{};
    for (std::size_t k = 0; k < kHistogramBounds; ++k) {
      b[k] = std::pow(10.0, static_cast<double>(k) / 4.0 - 9.0);
    }
    return b;
  }();
  return bounds;
}

namespace {

/// Index of the bucket holding `value` under inclusive (`le`) edges:
/// the first bound >= value, or the overflow bucket past the last bound.
/// lower_bound on the precomputed edges gives exact boundary semantics
/// (no log-arithmetic rounding surprises).
std::size_t histogram_bucket_index(double value) {
  const std::span<const double> bounds = histogram_upper_bounds();
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), value);
  return static_cast<std::size_t>(it - bounds.begin());
}

}  // namespace

void HistogramStats::observe(double value) {
  CEAL_EXPECT_MSG(std::isfinite(value),
                  "histogram observation must be finite");
  if (count == 0) {
    min = value;
    max = value;
  } else {
    min = std::min(min, value);
    max = std::max(max, value);
  }
  ++count;
  sum += value;
  if (buckets.empty()) buckets.assign(kHistogramBuckets, 0);
  ++buckets[histogram_bucket_index(value)];
}

void HistogramStats::merge(const HistogramStats& other) {
  if (other.count == 0) return;
  if (count == 0) {
    min = other.min;
    max = other.max;
  } else {
    min = std::min(min, other.min);
    max = std::max(max, other.max);
  }
  count += other.count;
  sum += other.sum;
  if (buckets.empty()) buckets.assign(kHistogramBuckets, 0);
  for (std::size_t i = 0; i < other.buckets.size(); ++i) {
    buckets[i] += other.buckets[i];
  }
}

double HistogramStats::quantile(double q) const {
  CEAL_EXPECT_MSG(count > 0, "quantile of an empty histogram");
  return ceal::histogram_quantile(buckets, histogram_upper_bounds(), q, min,
                                  max);
}

Telemetry::Shard& Telemetry::shard_for(std::string_view name) {
  return shards_[std::hash<std::string_view>{}(name) % kShards];
}

const Telemetry::Shard& Telemetry::shard_for(std::string_view name) const {
  return shards_[std::hash<std::string_view>{}(name) % kShards];
}

std::string span_histogram_name(std::string_view span) {
  return "timing." + std::string(span) + "_s";
}

template <typename Map>
Map Telemetry::snapshot(Map Shard::*member) const {
  Map out;
  for (const Shard& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    out.insert((shard.*member).begin(), (shard.*member).end());
  }
  return out;
}

namespace {

constexpr std::string_view kTimingPrefix = "timing.";

/// The span a `timing.<span>_s` histogram name belongs to, if any.
std::optional<std::string_view> span_of_histogram(std::string_view name) {
  if (!name.starts_with(kTimingPrefix) || !name.ends_with("_s") ||
      name.size() <= kTimingPrefix.size() + 2) {
    return std::nullopt;
  }
  name.remove_prefix(kTimingPrefix.size());
  name.remove_suffix(2);
  return name;
}

void observe_into(std::map<std::string, HistogramStats, std::less<>>& map,
                  std::string_view name, double value) {
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name), HistogramStats{}).first;
  }
  it->second.observe(value);
}

}  // namespace

void Telemetry::emit(TraceEvent event) {
  if (sink_ == nullptr && recorder_ == nullptr) return;
  std::lock_guard lock(emit_mutex_);
  event.seq_ = seq_++;
  if (sink_ != nullptr) sink_->write(event);
  if (recorder_ != nullptr) {
    std::ostringstream line;
    event.to_json().write(line);
    recorder_->record(line.str());
  }
  maybe_crash_after_emit();
}

void Telemetry::seed_trace(std::uint64_t seed) {
  std::lock_guard lock(causal_mutex_);
  seed_trace_locked(seed);
}

void Telemetry::seed_trace_locked(std::uint64_t seed) {
  trace_id_ = mix64(seed);
  if (trace_id_ == 0) trace_id_ = 1;
  span_base_ = trace_id_;
  strand_ = 0;
  next_span_ = 0;
  adopted_parent_ = 0;
  span_stack_.clear();
}

void Telemetry::adopt_trace(const TraceContext& parent,
                            std::uint64_t strand) {
  std::lock_guard lock(causal_mutex_);
  trace_id_ = parent.trace_id == 0 ? 1 : parent.trace_id;
  // Each strand gets a disjoint id namespace derived from (trace_id,
  // strand), so ids stay unique and deterministic no matter how sibling
  // strands interleave in wall time.
  span_base_ = mix64(trace_id_ ^ (strand + 1) * 0xda942042e4dd58b5ULL);
  if (span_base_ == 0) span_base_ = 1;
  strand_ = strand;
  next_span_ = 0;
  adopted_parent_ = parent.span_id;
  span_stack_.clear();
}

TraceContext Telemetry::current_span() const {
  std::lock_guard lock(causal_mutex_);
  TraceContext ctx;
  ctx.trace_id = trace_id_;
  ctx.span_id = span_stack_.empty() ? adopted_parent_ : span_stack_.back();
  return ctx;
}

TraceContext Telemetry::begin_span(const char* name) {
  TraceContext ctx;
  std::uint64_t strand = 0;
  {
    std::lock_guard lock(causal_mutex_);
    if (trace_id_ == 0) seed_trace_locked(0);
    ctx.trace_id = trace_id_;
    ctx.parent_span_id =
        span_stack_.empty() ? adopted_parent_ : span_stack_.back();
    ctx.span_id = mix64(span_base_ + ++next_span_);
    span_stack_.push_back(ctx.span_id);
    strand = strand_;
  }
  TraceEvent event("span.begin");
  event.field("span", name)
      .field("trace_id", span_id_hex(ctx.trace_id))
      .field("span_id", span_id_hex(ctx.span_id))
      .field("parent_span_id", span_id_hex(ctx.parent_span_id))
      .field("strand", strand)
      .timing("ts_s", monotonic_seconds());
  emit(std::move(event));
  return ctx;
}

void Telemetry::end_span(const char* name, const TraceContext& ctx,
                         double elapsed_s) {
  std::uint64_t strand = 0;
  {
    std::lock_guard lock(causal_mutex_);
    if (!span_stack_.empty() && span_stack_.back() == ctx.span_id) {
      span_stack_.pop_back();
    }
    strand = strand_;
  }
  TraceEvent event("span.end");
  event.field("span", name)
      .field("trace_id", span_id_hex(ctx.trace_id))
      .field("span_id", span_id_hex(ctx.span_id))
      .field("parent_span_id", span_id_hex(ctx.parent_span_id))
      .field("strand", strand)
      .timing("ts_s", monotonic_seconds())
      .timing("dur_s", elapsed_s);
  emit(std::move(event));
}

void Telemetry::count(std::string_view name, std::uint64_t delta) {
  Shard& shard = shard_for(name);
  std::lock_guard lock(shard.mutex);
  auto it = shard.counters.find(name);
  if (it == shard.counters.end()) {
    shard.counters.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

std::uint64_t Telemetry::counter(std::string_view name) const {
  const Shard& shard = shard_for(name);
  std::lock_guard lock(shard.mutex);
  const auto it = shard.counters.find(name);
  return it == shard.counters.end() ? 0 : it->second;
}

void Telemetry::gauge(std::string_view name, double value) {
  Shard& shard = shard_for(name);
  std::lock_guard lock(shard.mutex);
  auto it = shard.gauges.find(name);
  if (it == shard.gauges.end()) {
    shard.gauges.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

void Telemetry::gauge_max(std::string_view name, double value) {
  Shard& shard = shard_for(name);
  std::lock_guard lock(shard.mutex);
  auto it = shard.gauges.find(name);
  if (it == shard.gauges.end()) {
    shard.gauges.emplace(std::string(name), value);
  } else if (value > it->second) {
    it->second = value;
  }
}

void Telemetry::record_span(std::string_view name, double seconds) {
  Shard& shard = shard_for(name);
  std::lock_guard lock(shard.mutex);
  observe_into(shard.spans, name, seconds);
}

void Telemetry::observe(std::string_view name, double value) {
  Shard& shard = shard_for(name);
  std::lock_guard lock(shard.mutex);
  observe_into(shard.histograms, name, value);
}

HistogramStats Telemetry::histogram_stats(std::string_view name) const {
  HistogramStats out;
  const auto add = [&](const auto member, std::string_view key) {
    const Shard& shard = shard_for(key);
    std::lock_guard lock(shard.mutex);
    const auto it = (shard.*member).find(key);
    if (it != (shard.*member).end()) out.merge(it->second);
  };
  add(&Shard::histograms, name);
  if (const auto span = span_of_histogram(name)) add(&Shard::spans, *span);
  return out;
}

std::map<std::string, std::uint64_t, std::less<>> Telemetry::counters()
    const {
  return snapshot(&Shard::counters);
}

std::map<std::string, double, std::less<>> Telemetry::gauges() const {
  return snapshot(&Shard::gauges);
}

std::map<std::string, HistogramStats, std::less<>> Telemetry::histograms()
    const {
  auto out = snapshot(&Shard::histograms);
  for (const auto& [span, stats] : snapshot(&Shard::spans)) {
    out[span_histogram_name(span)].merge(stats);
  }
  return out;
}

void Telemetry::merge(const Telemetry& child,
                      std::span<const TraceEvent> events) {
  CEAL_EXPECT_MSG(&child != this, "cannot merge a Telemetry into itself");
  for (const auto& [name, value] : child.counters()) count(name, value);
  for (const auto& [name, value] : child.gauges()) gauge(name, value);
  for (const auto member : {&Shard::histograms, &Shard::spans}) {
    for (const auto& [name, stats] : child.snapshot(member)) {
      Shard& shard = shard_for(name);
      std::lock_guard lock(shard.mutex);
      (shard.*member)[name].merge(stats);
    }
  }
  // Replay the child's buffered events in order; emit() re-stamps each
  // with this instance's next sequence number, so merging children in a
  // fixed order reproduces the serial event stream exactly.
  for (const TraceEvent& event : events) emit(event);
}

TraceEvent Telemetry::summary_event() const {
  TraceEvent event("telemetry.summary");
  for (const auto& [name, value] : counters()) event.field(name, value);
  for (const auto& [name, value] : gauges()) event.field(name, value);
  // A span's call count is deterministic even though its histogram is
  // wall-clock, so it stays a plain field; the rest of the span renders
  // with the histograms below as `hist.timing.<span>_s.*`.
  for (const auto& [name, stats] : snapshot(&Shard::spans)) {
    event.field(name + ".count", stats.count);
  }
  // Histograms of wall clocks (name starts with "timing.") put *every*
  // stat — count included — inside the `timing` sub-object, so the
  // determinism strip (remove members named "timing") drops the whole
  // histogram; deterministic histograms stay in the byte-stable fields.
  for (const auto& [name, stats] : histograms()) {
    if (stats.count == 0) continue;
    const bool wall_clock = name.starts_with("timing.");
    const auto put = [&](const std::string& stat, double value) {
      const std::string key = "hist." + name + "." + stat;
      if (wall_clock) {
        event.timing(key, value);
      } else {
        event.field(key, value);
      }
    };
    if (wall_clock) {
      event.timing("hist." + name + ".count",
                   static_cast<double>(stats.count));
    } else {
      event.field("hist." + name + ".count", stats.count);
    }
    put("sum", stats.sum);
    put("min", stats.min);
    put("max", stats.max);
    put("p50", stats.quantile(0.50));
    put("p90", stats.quantile(0.90));
    put("p99", stats.quantile(0.99));
  }
  return event;
}

Table Telemetry::summary_table() const {
  Table table({"kind", "name", "count/value", "sum", "p50", "p99", "unit"});
  for (const auto& [name, value] : counters()) {
    table.add_row({"counter", name, std::to_string(value), "", "", "", ""});
  }
  for (const auto& [name, value] : gauges()) {
    table.add_row({"gauge", name, Table::num(value, 6), "", "", "", ""});
  }
  const auto spans = snapshot(&Shard::spans);
  for (const auto& [name, stats] : histograms()) {
    if (stats.count == 0) continue;
    const auto span = span_of_histogram(name);
    table.add_row({span && spans.contains(*span) ? "span" : "histogram",
                   name, std::to_string(stats.count),
                   Table::num(stats.sum, 6),
                   Table::num(stats.quantile(0.50), 6),
                   Table::num(stats.quantile(0.99), 6),
                   name.starts_with(kTimingPrefix) ? "s" : ""});
  }
  return table;
}

double ScopedSpan::stop() {
  if (telemetry_ != nullptr) {
    elapsed_ = monotonic_seconds() - start_;
    telemetry_->record_span(name_, elapsed_);
    if (traced_) telemetry_->end_span(name_, ctx_, elapsed_);
    telemetry_ = nullptr;
  }
  return elapsed_;
}

}  // namespace ceal::telemetry
