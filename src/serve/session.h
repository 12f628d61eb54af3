// One served tuning session: the exact object graph a `ceal_tune`
// invocation builds (workload, measured pool, component samples,
// TuningProblem, seeded rng, tuner), wrapped around a resumable
// TunerStepper so the daemon can advance it one slice at a time.
//
// Determinism contract: a session is a function of its CreateParams
// alone — the pool and component measurements are seeded draws, the
// stepper is the tuner's exact operation sequence — so a served
// session's result CSV is byte-identical to `ceal_tune --save-result`
// with the matching flags (tests/serve/test_session_matrix.cc holds it
// there). status_json() carries no wall-clock values, so response
// streams are byte-stable across thread counts.
//
// Thread-safety: step()/cancel()/status_json()/save_result() must be
// serialised by the caller (the server's per-session strand does this);
// state() alone is safe to read concurrently (server.stats snapshots).
// An internal mutex additionally serialises those members against
// metrics_json()/flush_trace(), which the daemon's periodic metrics
// exporter calls from outside the strand.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>

#include "core/flight_recorder.h"
#include "core/rng.h"
#include "core/telemetry.h"
#include "measure/subprocess.h"
#include "serve/protocol.h"
#include "tuner/autotuner.h"
#include "tuner/checkpoint.h"
#include "tuner/stepper.h"

namespace ceal::serve {

enum class SessionState {
  kRunning,    ///< stepper has work left
  kDone,       ///< finished; result available
  kCancelled,  ///< cancelled before finishing; no result
  kFailed,     ///< tuning logic threw; error() carries the message
};

const char* session_state_name(SessionState state);

class ServeSession {
 public:
  /// Builds the full session up front (pool + component measurements
  /// included — deliberately identical to ceal_tune's construction
  /// order). `journal_path` empty disables checkpointing; `resume`
  /// selects kResume (replay an existing journal while stepping) over
  /// kStart. `trace_path` empty disables the per-session trace sink
  /// (`trace_fsync` makes its flushes durable). A nonzero
  /// `flight_recorder_capacity` attaches a per-session FlightRecorder
  /// (creating session telemetry even without a trace sink) and
  /// registers it with the process crash registry under "session:<id>".
  /// `backend` and `subprocess` go to measure::make_backend; no result
  /// or journal byte depends on them, so they stay out of CreateParams.
  /// Throws (CheckpointError, PreconditionError) on invalid
  /// combinations; the server reports the error and drops the session.
  ServeSession(std::string id, CreateParams params,
               const std::string& journal_path, bool resume,
               const std::string& trace_path, bool trace_fsync = false,
               std::size_t flight_recorder_capacity = 0,
               measure::BackendKind backend = measure::BackendKind::kNone,
               const measure::SubprocessOptions& subprocess = {});

  ServeSession(const ServeSession&) = delete;
  ServeSession& operator=(const ServeSession&) = delete;

  const std::string& id() const { return id_; }
  const CreateParams& params() const { return params_; }
  SessionState state() const {
    return state_.load(std::memory_order_acquire);
  }

  /// Runs up to `n` stepper slices. A session that already left
  /// kRunning is not stepped — over-stepping is a no-op, not an error.
  /// Exceptions from the tuning logic mark the session kFailed and are
  /// captured in error().
  void step(std::size_t n);

  /// kRunning -> kCancelled. Throws ProtocolError otherwise (double
  /// cancel, cancelling a finished session).
  void cancel();

  /// Message of the failure that moved the session to kFailed.
  const std::string& error() const { return error_; }

  /// Deterministic status object: id, state, session identity, steps
  /// taken, and — once done — the result summary (hex-float costs).
  /// Never contains wall-clock values.
  json::Value status_json() const;

  /// Writes the result CSV via tuner::save_result_csv — the byte format
  /// of `ceal_tune --save-result`. Throws ProtocolError unless kDone.
  void save_result(const std::string& path) const;

  /// Live-progress object for server.metrics: identity and state plus
  /// the stepper's TunerProgress (budget used/remaining, best measured
  /// value, model phase, last switch-detection recalls) and — with a
  /// checkpoint attached — journal depth and replay lag. Safe to call
  /// concurrently with step() (internal mutex); every field is a
  /// deterministic function of the steps taken so far.
  json::Value metrics_json() const;

  /// Flushes the per-session trace sink, if any (graceful-shutdown
  /// drain). Safe to call concurrently with step().
  void flush_trace();

  /// This session's flight recorder (null unless created with a nonzero
  /// capacity). The pointer is stable for the session's lifetime.
  const telemetry::FlightRecorder* flight_recorder() const {
    return recorder_.get();
  }

 private:
  mutable std::mutex mutex_;  ///< serialises stepper access (see header)
  std::string id_;
  CreateParams params_;
  sim::Workload workload_;
  tuner::MeasuredPool pool_;
  std::vector<tuner::ComponentSamples> comps_;
  std::unique_ptr<telemetry::JsonlTraceSink> trace_sink_;
  std::unique_ptr<telemetry::FlightRecorder> recorder_;
  std::unique_ptr<telemetry::Telemetry> telemetry_;
  /// Declared after pool_ and telemetry_ (both of which it borrows), so
  /// it is destroyed — workers reaped — before either.
  std::unique_ptr<measure::MeasureBackend> measure_backend_;
  std::unique_ptr<tuner::CheckpointSession> checkpoint_;
  std::unique_ptr<tuner::AutoTuner> algorithm_;
  tuner::TuningProblem problem_;
  ceal::Rng rng_;
  std::unique_ptr<tuner::TunerStepper> stepper_;
  std::atomic<SessionState> state_{SessionState::kRunning};
  std::string error_;
  /// Monotonic sum of the step counts ever requested of this session
  /// (over-stepping included) — the session_age_steps metric.
  std::uint64_t age_steps_ = 0;
};

}  // namespace ceal::serve
