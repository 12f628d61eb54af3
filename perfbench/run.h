// State shared by one benchmark run: options, the tracer, failure
// accounting, correctness findings and the metrics to print.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  /// Scratch directory for journals and the trace file.
  std::string out_dir = ".bench_out";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< printed beside the value, not in the JSON
};

class Run {
 public:
  Run(Options options, Clock::time_point process_start)
      : options(std::move(options)),
        process_start(process_start),
        tracer(this->options.trace) {}

  const Options options;
  const Clock::time_point process_start;
  Tracer tracer;

  /// Operations attempted and failed (an exception, an ok:false reply,
  /// or a failed or censored measurement inside a session).
  std::size_t attempted = 0;
  std::size_t failed = 0;

  /// Records a correctness finding when `ok` is false.
  void check(bool ok, const std::string& what);
  const std::vector<std::string>& errors() const { return errors_; }

  void metric(std::string name, double value, std::string unit,
              std::string note = "");
  const std::vector<Metric>& metrics() const { return metrics_; }

  /// Seed for an independent input stream of this run.
  std::uint64_t derive(std::uint64_t stream) const;

 private:
  std::vector<std::string> errors_;
  std::vector<Metric> metrics_;
};

/// The four workloads. Each sets itself up, measures for
/// options.seconds (untraced) or makes the traced run, checks its
/// outputs, and records every metric of the run's mode.
void run_suite(Run& run);
void run_history(Run& run);
void run_large_pool(Run& run);
void run_serve(Run& run);

/// Number of set-ups made before the measurement.
inline constexpr int kSetupReps = 5;

/// Times a workload's set-up. initial() makes kSetupReps complete
/// set-ups, each from scratch, the first timed from process start, each
/// in a trace window, and keeps the last. An untraced run then calls
/// resample() between units of measured work, which makes one more
/// (discarded) set-up when the last is at least a second and ten set-up
/// times old, so that set-ups sample the host across the whole run.
/// record() reports setup_s, the fastest set-up.
template <class Build>
class SetUp {
 public:
  SetUp(Run& run, Build build) : run_(run), build_(std::move(build)) {}

  auto initial() {
    decltype(build_()) state{};
    for (int rep = 0; rep < kSetupReps; ++rep) {
      state = {};  // free the previous set-up before timing the next
      const Clock::time_point t0 =
          rep == 0 ? run_.process_start : Clock::now();
      TraceWindow window(run_.tracer);
      state = build_();
      times_.push_back(seconds_since(t0));
    }
    last_ = Clock::now();
    return state;
  }

  void resample() {
    if (seconds_since(last_) < std::max(1.0, 10.0 * repeated_cost(times_))) {
      return;
    }
    {
      const Clock::time_point t0 = Clock::now();
      const auto discarded = build_();
      times_.push_back(seconds_since(t0));
    }
    last_ = Clock::now();
  }

  void record() {
    run_.metric("setup_s", repeated_cost(times_), "s",
                "fastest of " + std::to_string(times_.size()) + " set-ups");
  }

 private:
  Run& run_;
  Build build_;
  std::vector<double> times_;
  Clock::time_point last_{};
};

}  // namespace perfbench
