#include "serve/session.h"

#include "tuner/result_io.h"

namespace ceal::serve {

const char* session_state_name(SessionState state) {
  switch (state) {
    case SessionState::kRunning:
      return "running";
    case SessionState::kDone:
      return "done";
    case SessionState::kCancelled:
      return "cancelled";
    case SessionState::kFailed:
      return "failed";
  }
  return "unknown";
}

ServeSession::ServeSession(std::string id, CreateParams params,
                           const std::string& journal_path, bool resume,
                           const std::string& trace_path, bool trace_fsync,
                           std::size_t flight_recorder_capacity,
                           measure::BackendKind backend,
                           const measure::SubprocessOptions& subprocess)
    : id_(std::move(id)),
      params_(std::move(params)),
      workload_(tuner::workload_by_name(params_.workflow)),
      pool_(tuner::measure_pool(workload_.workflow, params_.pool_size,
                                params_.pool_seed)),
      comps_(tuner::measure_components(workload_.workflow,
                                       params_.component_samples,
                                       params_.component_seed())),
      rng_(params_.seed) {
  if (!trace_path.empty()) {
    trace_sink_ = std::make_unique<telemetry::JsonlTraceSink>(trace_path,
                                                              trace_fsync);
  }
  if (trace_sink_ != nullptr || flight_recorder_capacity > 0) {
    telemetry_ = std::make_unique<telemetry::Telemetry>(trace_sink_.get());
    // Span ids derive from the session seed, so the trace of a seeded
    // session is byte-identical (timing stripped) across thread counts
    // and across restarts.
    telemetry_->seed_trace(params_.seed);
    if (flight_recorder_capacity > 0) {
      recorder_ = std::make_unique<telemetry::FlightRecorder>(
          flight_recorder_capacity);
      telemetry_->set_flight_recorder(recorder_.get());
      telemetry::register_crash_recorder(recorder_.get(), "session:" + id_);
    }
  }
  // Built before the stepper so problem_.measure is set when the first
  // batch runs; resume works unchanged because replayed measurements
  // never reach a backend.
  measure_backend_ = measure::make_backend(backend, pool_, subprocess,
                                           params_, /*pool_file=*/"",
                                           telemetry_.get());
  if (!journal_path.empty()) {
    checkpoint_ = std::make_unique<tuner::CheckpointSession>(
        journal_path, resume ? tuner::CheckpointSession::Mode::kResume
                             : tuner::CheckpointSession::Mode::kStart);
    if (telemetry_ != nullptr) checkpoint_->set_telemetry(telemetry_.get());
  }
  algorithm_ = tuner::algorithm_by_name(params_.algorithm);
  problem_ = tuner::make_problem(params_, workload_, pool_, comps_);
  problem_.telemetry = telemetry_.get();
  problem_.measure = measure_backend_.get();
  // Writes (or, on resume, validates) the session header immediately;
  // journaled records then replay as the session is stepped.
  stepper_ = algorithm_->make_stepper(problem_, params_.budget, rng_,
                                      checkpoint_.get());
}

void ServeSession::step(std::size_t n) {
  std::lock_guard lock(mutex_);
  age_steps_ += n;
  {
    // The root span of this request slice: every tuner.step /
    // collector.measure / surrogate span below parents under it.
    telemetry::ScopedSpan span(telemetry_.get(), "serve.step");
    for (std::size_t k = 0; k < n; ++k) {
      if (state() != SessionState::kRunning) break;
      try {
        if (!stepper_->step())
          state_.store(SessionState::kDone, std::memory_order_release);
      } catch (const std::exception& e) {
        error_ = e.what();
        state_.store(SessionState::kFailed, std::memory_order_release);
        break;
      }
    }
  }
  // Flush after every slice so the on-disk trace always ends at a
  // complete line — the crash-dump gate matches its tail against the
  // flight recorder.
  if (trace_sink_ != nullptr) trace_sink_->flush();
}

void ServeSession::cancel() {
  std::lock_guard lock(mutex_);
  if (state() != SessionState::kRunning) {
    throw ProtocolError("session " + id_ + ": cannot cancel a " +
                        std::string(session_state_name(state())) +
                        " session");
  }
  state_.store(SessionState::kCancelled, std::memory_order_release);
}

json::Value ServeSession::status_json() const {
  std::lock_guard lock(mutex_);
  json::Value status = json::Value::object();
  status.set("ok", json::Value::boolean(true));
  status.set("id", json::Value::string(id_));
  status.set("state", json::Value::string(session_state_name(state())));
  status.set("algorithm", json::Value::string(params_.algorithm));
  status.set("workflow", json::Value::string(params_.workflow));
  status.set("objective", json::Value::string(params_.objective));
  status.set("budget", json::Value::number(
                           static_cast<std::uint64_t>(params_.budget)));
  status.set("seed", json::Value::number(params_.seed));
  status.set("steps", json::Value::number(static_cast<std::uint64_t>(
                          stepper_->steps_taken())));
  if (state() == SessionState::kDone) {
    const tuner::TuneResult& result = stepper_->result();
    status.set("runs_used", json::Value::number(static_cast<std::uint64_t>(
                                result.runs_used)));
    status.set("measured", json::Value::number(static_cast<std::uint64_t>(
                               result.measured_indices.size())));
    status.set("failed_runs", json::Value::number(static_cast<std::uint64_t>(
                                  result.failed_runs)));
    status.set("best_predicted_index",
               json::Value::number(static_cast<std::uint64_t>(
                   result.best_predicted_index)));
    status.set("best_measured_index",
               json::Value::number(static_cast<std::uint64_t>(
                   result.best_measured_index)));
    status.set("cost_exec_s",
               json::Value::string(tuner::hex_double(result.cost_exec_s)));
    status.set("cost_comp_ch",
               json::Value::string(tuner::hex_double(result.cost_comp_ch)));
  }
  if (state() == SessionState::kFailed)
    status.set("error", json::Value::string(error_));
  return status;
}

void ServeSession::save_result(const std::string& path) const {
  std::lock_guard lock(mutex_);
  if (state() != SessionState::kDone) {
    throw ProtocolError("session " + id_ + ": no result yet (state " +
                        std::string(session_state_name(state())) + ")");
  }
  tuner::save_result_csv(path, stepper_->result(), params_);
}

json::Value ServeSession::metrics_json() const {
  std::lock_guard lock(mutex_);
  json::Value m = json::Value::object();
  m.set("id", json::Value::string(id_));
  m.set("state", json::Value::string(session_state_name(state())));
  m.set("algorithm", json::Value::string(params_.algorithm));
  m.set("workflow", json::Value::string(params_.workflow));
  m.set("objective", json::Value::string(params_.objective));
  m.set("budget",
        json::Value::number(static_cast<std::uint64_t>(params_.budget)));
  m.set("steps", json::Value::number(
                     static_cast<std::uint64_t>(stepper_->steps_taken())));
  m.set("session_age_steps", json::Value::number(age_steps_));
  if (recorder_ != nullptr) {
    m.set("recorder_events", json::Value::number(
                                 static_cast<std::uint64_t>(
                                     recorder_->size())));
    m.set("recorder_dropped", json::Value::number(recorder_->dropped()));
  }
  const tuner::TunerProgress progress = stepper_->progress();
  m.set("budget_used", json::Value::number(static_cast<std::uint64_t>(
                           progress.budget_used)));
  m.set("budget_remaining", json::Value::number(static_cast<std::uint64_t>(
                                progress.budget_remaining)));
  if (progress.has_best)
    m.set("best_value", json::Value::number(progress.best_value));
  if (progress.model != nullptr)
    m.set("model", json::Value::string(progress.model));
  if (progress.has_recalls) {
    m.set("recall_low", json::Value::number(progress.recall_low));
    m.set("recall_high", json::Value::number(progress.recall_high));
  }
  if (checkpoint_ != nullptr) {
    m.set("checkpoint_records",
          json::Value::number(checkpoint_->appended_records()));
    m.set("checkpoint_replay_pending",
          json::Value::number(
              static_cast<std::uint64_t>(checkpoint_->replay_pending())));
  }
  if (state() == SessionState::kFailed)
    m.set("error", json::Value::string(error_));
  return m;
}

void ServeSession::flush_trace() {
  std::lock_guard lock(mutex_);
  if (trace_sink_ != nullptr) trace_sink_->flush();
}

}  // namespace ceal::serve
