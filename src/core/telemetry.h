// Structured tracing + metrics for the tuning loop.
//
// Three pieces:
//  * Telemetry — a registry of named counters, gauges, and histograms,
//    plus an optional TraceSink that receives structured TraceEvents.
//  * TraceSink — where events go: JsonlTraceSink writes one JSON object
//    per line, NullTraceSink swallows everything (for overhead tests),
//    MultiTraceSink fans out to several sinks, BufferTraceSink keeps
//    events in memory for a deterministic merge into a parent.
//  * ScopedSpan — the one RAII wall-clock timer. Span `x` feeds the
//    histogram `timing.x_s` and, when the Telemetry is observed, emits
//    causal `span.begin`/`span.end` events; a no-op when constructed
//    with a null Telemetry.
//
// Thread-safety contract: one Telemetry may be shared by any number of
// concurrent writers. Counters, gauges, and histograms live in
// name-sharded accumulators (one mutex per shard); emit() serialises
// sequence-number stamping and the sink write behind a single mutex, so
// a sink's write() is never entered concurrently. Snapshot accessors
// (counters(), gauges(), histograms(), summary_*) merge the shards into
// one sorted map, so their output is independent of shard layout and
// thread interleaving.
//
// Determinism contract: every event field except the `timing` sub-object
// must be a deterministic function of the tuning session's seed. All
// wall-clock values live exclusively under `timing`, so two traces of
// the same seeded session are byte-identical once `timing` is stripped
// (`ceal_trace --check-determinism` and tests/tuner/test_trace.cc hold
// the instrumentation to this). Concurrent emitters interleave
// nondeterministically — when event *order* must stay a function of the
// seed (parallel replications), give each concurrent unit its own child
// Telemetry with a BufferTraceSink and merge() the children in a fixed
// order afterwards (tuner::evaluate does exactly this).
//
// Overhead contract: code under instrumentation holds a nullable
// `Telemetry*`; with no telemetry attached every instrumentation site
// reduces to one branch on that pointer (bench_micro_telemetry measures
// the residual cost and fails when the session delta breaks the bound).
#pragma once

#include <array>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/json.h"
#include "core/table.h"

namespace ceal::telemetry {

class FlightRecorder;

/// Monotonic (steady_clock) seconds since an arbitrary epoch.
double monotonic_seconds();

/// Identity of one causal span: which trace it belongs to, which span it
/// is, and which span caused it. Ids are deterministic functions of the
/// session seed + an allocation counter (never wall clocks), so the span
/// tree of a seeded run is byte-identical across thread counts. Id 0
/// means "none" (an unparented root).
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
};

/// splitmix64 finalizer: the id-derivation mix for trace/span ids.
std::uint64_t mix64(std::uint64_t x);

/// Ids render as fixed-width lowercase hex in events ("%016x"), which
/// keeps them byte-stable and avoids double-precision loss in JSON.
std::string span_id_hex(std::uint64_t id);

/// One structured trace record: a name, deterministic fields, and
/// wall-clock timing fields kept in a separate sub-object.
class TraceEvent {
 public:
  explicit TraceEvent(std::string name) : name_(std::move(name)) {}

  TraceEvent& field(std::string key, json::Value v);
  TraceEvent& field(std::string key, bool v);
  TraceEvent& field(std::string key, double v);
  TraceEvent& field(std::string key, std::int64_t v);
  TraceEvent& field(std::string key, std::uint64_t v);
  TraceEvent& field(std::string key, int v);
  TraceEvent& field(std::string key, const char* v);
  TraceEvent& field(std::string key, std::string v);
  TraceEvent& field(std::string key, std::span<const std::size_t> v);
  TraceEvent& field(std::string key, std::span<const double> v);

  /// Wall-clock seconds; serialised under the `timing` sub-object.
  TraceEvent& timing(std::string key, double seconds);

  const std::string& name() const { return name_; }

  /// {"event":name,["seq":n,]fields...,["timing":{...}]}
  json::Value to_json() const;

 private:
  friend class Telemetry;

  std::string name_;
  std::optional<std::uint64_t> seq_;
  std::vector<std::pair<std::string, json::Value>> fields_;
  std::vector<std::pair<std::string, double>> timing_;
};

/// Receives trace events. Implementations must tolerate events of any
/// name — the schema is open (docs/OBSERVABILITY.md). A sink attached to
/// a Telemetry has its write() serialised by the emit lock, so write()
/// itself does not need to be re-entrant; a sink shared by several
/// Telemetry instances must synchronise internally.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void write(const TraceEvent& event) = 0;
  virtual void flush() {}
};

/// Swallows everything; stands in for "tracing disabled" where a sink is
/// structurally required (overhead benchmarks).
class NullTraceSink final : public TraceSink {
 public:
  void write(const TraceEvent&) override {}
};

/// One compact JSON object per line. The file constructor owns the
/// stream and flushes on destruction; the ostream constructor borrows.
/// An internal mutex serialises writes, so one JsonlTraceSink may be
/// shared by several Telemetry instances without interleaving lines.
class JsonlTraceSink final : public TraceSink {
 public:
  explicit JsonlTraceSink(std::ostream& os) : os_(&os) {}
  /// Opens (truncates) `path`; throws PreconditionError on failure.
  /// With `fsync_on_flush`, flush() additionally fsyncs the file so a
  /// SIGKILL after a flush cannot lose acknowledged lines (POSIX only;
  /// a no-op flag elsewhere). ceal_serve --trace-dir sinks set it.
  explicit JsonlTraceSink(const std::string& path,
                          bool fsync_on_flush = false);
  ~JsonlTraceSink() override;

  void write(const TraceEvent& event) override;
  void flush() override;

 private:
  std::mutex mutex_;
  std::ofstream file_;
  std::ostream* os_ = nullptr;
  std::string path_;
  bool fsync_on_flush_ = false;
};

/// Fans one event out to several sinks, in order.
class MultiTraceSink final : public TraceSink {
 public:
  explicit MultiTraceSink(std::vector<TraceSink*> sinks);
  void write(const TraceEvent& event) override;
  void flush() override;

 private:
  std::vector<TraceSink*> sinks_;
};

/// Keeps every event in memory, in arrival order. The building block of
/// the deterministic parallel-tracing pattern: each concurrent unit
/// (replication, worker) emits into its own child Telemetry backed by a
/// BufferTraceSink, and the parent replays the buffers in a fixed order
/// via Telemetry::merge once the parallel section is over.
class BufferTraceSink final : public TraceSink {
 public:
  void write(const TraceEvent& event) override;

  /// The buffered events, in emission order. Only call after the
  /// producing session finished (no concurrent write()).
  std::span<const TraceEvent> events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  void clear() { events_.clear(); }

 private:
  std::vector<TraceEvent> events_;
};

/// The histogram span `span` renders as: `timing.<span>_s`.
std::string span_histogram_name(std::string_view span);

/// Shared bucket layout of every histogram: four log-spaced buckets per
/// decade spanning [1e-9, 1e9] (upper_bounds[k] = 10^(k/4 - 9)), plus
/// one overflow bucket. One fixed layout means any two histograms merge
/// bucket-by-bucket and the Prometheus exposition needs no per-metric
/// configuration.
inline constexpr std::size_t kHistogramBounds = 73;
inline constexpr std::size_t kHistogramBuckets = kHistogramBounds + 1;

/// The inclusive (`le`) upper edges, ascending. Computed once.
std::span<const double> histogram_upper_bounds();

/// Distribution accumulator: exact count/sum/min/max plus the fixed
/// log-spaced bucket counts above. `sum` of integer-valued observations
/// is exact and order-independent (integers up to 2^53 add exactly in a
/// double), so such histograms are deterministic under any merge order;
/// wall-clock histograms are not, and must be named `timing.*` so the
/// determinism gates strip them (see docs/OBSERVABILITY.md).
struct HistogramStats {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< Meaningful only when count > 0.
  double max = 0.0;
  /// kHistogramBuckets entries; empty until the first observation.
  std::vector<std::uint64_t> buckets;

  void observe(double value);
  void merge(const HistogramStats& other);
  /// Bucket-interpolated quantile (stats.h histogram_quantile), clamped
  /// to [min, max]. Requires count > 0.
  double quantile(double q) const;
};

/// Registry of counters, gauges, and histograms, with an optional trace
/// sink. Safe under concurrent writers: accumulator updates are
/// sharded by name, and emit() serialises the sequence stamp + sink
/// write. See the file header for how to keep event *order*
/// deterministic across threads (child instances + merge()).
class Telemetry {
 public:
  explicit Telemetry(TraceSink* sink = nullptr) : sink_(sink) {}

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// Not synchronised with concurrent emit(); set the sink before the
  /// instrumented session starts.
  void set_sink(TraceSink* sink) { sink_ = sink; }
  TraceSink* sink() const { return sink_; }
  bool tracing() const { return sink_ != nullptr; }

  /// Attaches a (borrowed, not owned) flight recorder that captures the
  /// serialized form of every emitted event. Not synchronised with
  /// concurrent emit(); attach before the instrumented session starts.
  void set_flight_recorder(FlightRecorder* recorder) {
    recorder_ = recorder;
  }
  FlightRecorder* flight_recorder() const { return recorder_; }

  /// True when emitted events go anywhere (sink or flight recorder).
  /// The cheap one-branch check causal spans make before allocating ids.
  bool observed() const {
    return sink_ != nullptr || recorder_ != nullptr;
  }

  /// Stamps the event with the next sequence number and forwards it to
  /// the sink and/or flight recorder; drops it (cheaply) when neither is
  /// attached. Concurrent calls serialise: sequence numbers are unique
  /// and the sink never sees two writes at once.
  void emit(TraceEvent event);

  /// --- Causal spans -------------------------------------------------
  /// Roots this instance's span-id namespace at `seed`: trace_id =
  /// mix64(seed) (forced nonzero), span ids are mix64(trace_id + n) for
  /// the n-th begin_span. Resets the span stack. Call once before the
  /// instrumented session starts; a begin_span on a never-seeded
  /// instance implicitly seeds with 0.
  void seed_trace(std::uint64_t seed);

  /// Joins `parent`'s trace from a concurrent strand (replication
  /// index, session lane): same trace_id, but span ids come from a
  /// strand-specific namespace — mix64(trace_id ^ (strand+1)·φ₂) — so
  /// sibling strands never collide, and depth-0 spans of this instance
  /// parent under `parent.span_id`. Used by the child-Telemetry merge
  /// pattern to keep parallel span trees deterministic.
  void adopt_trace(const TraceContext& parent, std::uint64_t strand);

  /// The innermost open span (or the adopted parent when the stack is
  /// empty; all-zero when tracing was never seeded).
  TraceContext current_span() const;

  /// Opens a span: allocates the next deterministic span id, parents it
  /// under the innermost open span, pushes it on the span stack, and
  /// emits `span.begin` (ids + strand as deterministic fields, start
  /// time under `timing.ts_s`). ScopedSpan calls this.
  TraceContext begin_span(const char* name);

  /// Closes a span: emits `span.end` (same identity fields, end time
  /// under `timing.ts_s`, duration under `timing.dur_s`) and pops the
  /// stack if `ctx` is its top (tolerates out-of-order stops).
  void end_span(const char* name, const TraceContext& ctx,
                double elapsed_s);

  void count(std::string_view name, std::uint64_t delta = 1);
  /// 0 for a counter never incremented.
  std::uint64_t counter(std::string_view name) const;

  /// Last-write-wins gauge.
  void gauge(std::string_view name, double value);
  /// High-water gauge: keeps the maximum of all values ever set.
  void gauge_max(std::string_view name, double value);

  /// Adds one observation to the named histogram. Wall-clock
  /// observations must go to a `timing.*`-named histogram (determinism
  /// contract); deterministic quantities (counts of things) may use any
  /// other name. A span's own interval is ScopedSpan's job: never
  /// observe `timing.<span>_s` beside span `<span>`.
  void observe(std::string_view name, double value);
  /// Stats of one histogram; a span `x` reads as `timing.x_s`.
  HistogramStats histogram_stats(std::string_view name) const;

  /// Snapshots: the shards merged into one name-sorted map. The result
  /// is independent of shard layout; taking a snapshot while writers are
  /// active yields some consistent intermediate state.
  std::map<std::string, std::uint64_t, std::less<>> counters() const;
  std::map<std::string, double, std::less<>> gauges() const;
  /// Every histogram, spans included (span `x` as `timing.x_s`).
  std::map<std::string, HistogramStats, std::less<>> histograms() const;

  /// Deterministic merge of a child's accumulators into this instance:
  /// counters and histograms (spans included) add, gauges take the
  /// child's value. When
  /// `events` is non-empty (a BufferTraceSink's buffer) each event is
  /// re-emitted through this instance in order, acquiring fresh sequence
  /// numbers — so merging children in a fixed order reproduces the exact
  /// event stream a serial run would have produced.
  void merge(const Telemetry& child,
             std::span<const TraceEvent> events = {});

  /// "telemetry.summary" event: counters and gauges as deterministic
  /// fields, then each span's call count as the deterministic field
  /// `<span>.count`. Histograms surface as `hist.<name>.<stat>` (count,
  /// sum, min, max, p50, p90, p99); every stat of a `timing.*`-named
  /// histogram — each span's `timing.<span>_s` among them — goes under
  /// `timing` so the determinism strip removes it whole.
  TraceEvent summary_event() const;

  /// Human-readable metrics table for `ceal_tune --metrics-summary`:
  /// counters and gauges give one value; spans and histograms share one
  /// row layout (count, sum, p50, p99), with unit `s` on `timing.*` rows
  /// only.
  Table summary_table() const;

 private:
  // Accumulators are sharded by a hash of the metric name so concurrent
  // writers on different names rarely contend; one name always maps to
  // one shard, which keeps gauge last-write-wins and counter addition
  // race-free under the shard mutex.
  // Spans are keyed by span name, apart from the named histograms: a
  // stop builds no `timing.<span>_s` string, and the summary lists span
  // counts (deterministic, unlike a `timing.*` histogram's) by span name.
  struct Shard {
    mutable std::mutex mutex;
    std::map<std::string, std::uint64_t, std::less<>> counters;
    std::map<std::string, double, std::less<>> gauges;
    std::map<std::string, HistogramStats, std::less<>> histograms;
    std::map<std::string, HistogramStats, std::less<>> spans;
  };
  static constexpr std::size_t kShards = 8;

  Shard& shard_for(std::string_view name);
  const Shard& shard_for(std::string_view name) const;

  /// The shards' `member` maps merged into one name-sorted map.
  template <typename Map>
  Map snapshot(Map Shard::*member) const;

  friend class ScopedSpan;
  /// Adds one timed interval to span `name`'s histogram.
  void record_span(std::string_view name, double seconds);

  TraceSink* sink_;
  FlightRecorder* recorder_ = nullptr;  // borrowed; see set_flight_recorder
  std::mutex emit_mutex_;          // guards seq_ and the sink write
  std::uint64_t seq_ = 0;
  std::array<Shard, kShards> shards_;

  // Causal-span state. A separate mutex from emit_mutex_: begin/end
  // compute ids under this lock, then emit() takes the emit lock — the
  // two never nest the other way, so no ordering cycle.
  void seed_trace_locked(std::uint64_t seed);
  mutable std::mutex causal_mutex_;
  std::uint64_t trace_id_ = 0;       // 0 = never seeded
  std::uint64_t span_base_ = 0;      // id-namespace root (strand-mixed)
  std::uint64_t strand_ = 0;         // emitted on span events
  std::uint64_t next_span_ = 0;      // allocation counter
  std::uint64_t adopted_parent_ = 0; // parent for depth-0 spans
  std::vector<std::uint64_t> span_stack_;
};

/// The one RAII wall-clock span. On stop()/destruction it adds the
/// elapsed time to span `name`, which renders as the histogram
/// `timing.<name>_s`. When the Telemetry is observed (sink or flight
/// recorder attached) it also carries a TraceContext and emits paired
/// `span.begin`/`span.end` events; `kNoEvents` sites (hot per-task or
/// per-request spans, whose events would flood the trace) never emit. With
/// a null Telemetry every member is one branch; with telemetry attached
/// but nothing observing, no events are built.
class ScopedSpan {
 public:
  enum Events : bool { kNoEvents = false, kEvents = true };

  ScopedSpan(Telemetry* telemetry, const char* name,
             Events events = kEvents)
      : telemetry_(telemetry), name_(name) {
    if (telemetry_ != nullptr) {
      if (events == kEvents && telemetry_->observed()) {
        ctx_ = telemetry_->begin_span(name_);
        traced_ = true;
      }
      // Clock starts after the begin event is built and emitted (and
      // stop() measures before emitting span.end), so serialization
      // cost never lands inside the charged window — microsecond-scale
      // spans would otherwise double under tracing.
      start_ = monotonic_seconds();
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { stop(); }

  /// This span's identity — pass to Telemetry::adopt_trace to parent a
  /// concurrent child strand under it. All-zero when untraced.
  const TraceContext& context() const { return ctx_; }

  /// Records the span (histogram + span.end) once; further calls return
  /// the first elapsed time. Returns 0 with no telemetry.
  double stop();

 private:
  Telemetry* telemetry_;
  const char* name_;
  TraceContext ctx_;
  bool traced_ = false;
  double start_ = 0.0;
  double elapsed_ = 0.0;
};

}  // namespace ceal::telemetry
