// Benchmark-side timing: a span recorder for the traced run, plus the
// sample statistics every metric is reported with.
//
// Spans are recorded by the benchmark around its own calls into the
// program's public entry points, never from inside the program, so the
// program's telemetry can change without touching the benchmark. Spans
// nest on the calling thread only (the benchmark's main thread); work the
// program fans out to its own threads is covered by the span of the call
// that started it.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double seconds_since(Clock::time_point start) {
  return seconds_between(start, Clock::now());
}

class Tracer {
 public:
  /// A disabled tracer records nothing; every span is one branch.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool recording() const { return enabled_ && window_open_; }

  /// Spans record only inside a window. Wall time inside windows is the
  /// denominator of unattributed_fraction().
  void open_window();
  void close_window();

  class Span {
   public:
    Span(Tracer& tracer, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_ = nullptr;  // null when not recording
    std::size_t index_ = 0;
  };

  /// Summed wall seconds of the spans with this name.
  double total_seconds(const std::string& name) const;

  /// Per span name: its duration minus the part its child spans cover.
  std::map<std::string, double> self_seconds() const;

  /// Share of windowed wall time that no top-level span covers.
  double unattributed_fraction() const;

  /// Writes the spans as a Chrome trace-event JSON file (chrome://tracing,
  /// Perfetto). Returns false when the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    std::ptrdiff_t parent;
    Clock::time_point start;
    Clock::time_point end;
  };

  bool enabled_;
  bool window_open_ = false;
  Clock::time_point origin_ = Clock::now();
  Clock::time_point window_start_{};
  double window_s_ = 0.0;
  std::vector<Record> records_;
  std::ptrdiff_t open_ = -1;  // innermost open span
};

/// Opens a tracer window for the lifetime of the object.
class TraceWindow {
 public:
  explicit TraceWindow(Tracer& tracer) : tracer_(tracer) {
    tracer_.open_window();
  }
  ~TraceWindow() { tracer_.close_window(); }
  TraceWindow(const TraceWindow&) = delete;
  TraceWindow& operator=(const TraceWindow&) = delete;

 private:
  Tracer& tracer_;
};

/// Median and tail of a latency sample. The tail is the highest
/// percentile with at least ten samples beyond it, capped at p99 once the
/// sample is large enough for p99 to have ten beyond it, and never below
/// the median.
struct Latency {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_percentile = 0.0;
  std::size_t samples = 0;
};

Latency summarize(std::vector<double> samples);

double median(std::vector<double> samples);

/// The cost of a unit of work measured several times: the fastest of its
/// repetitions. Each vCPU of a shared host runs at about half speed for
/// stretches of one to thirty seconds, independently of the others, so a
/// median or a mean over a run reads whichever speed dominated that run;
/// the fastest repetition reads the uncontended cost as long as one
/// repetition ran uncontended.
inline double repeated_cost(const std::vector<double>& repetitions) {
  return repetitions.empty()
             ? 0.0
             : *std::min_element(repetitions.begin(), repetitions.end());
}

/// Process CPU seconds (user + system) from getrusage.
double process_cpu_seconds();

/// High-water resident set size of this process in MiB.
double peak_rss_mb();

}  // namespace perfbench
