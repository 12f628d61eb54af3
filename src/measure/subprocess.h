// SubprocessBackend: fans measurement batches out to a pool of
// ceal_worker processes (tools/ceal_worker.cc) over pipes, speaking the
// journal-framed wire protocol of measure/wire.h. Robustness-first
// dispatcher semantics (docs/RELIABILITY.md "Distributed measurement
// plane"):
//
//  * Deadline-aware dispatch. Every in-flight run carries its dispatch
//    time. Past `hedge_after_s` the run is *hedged*: a duplicate is
//    dispatched to an idle worker, the first result wins, and the
//    loser's late result is discarded after a config-fingerprint check
//    (counted as measure.hedge_wasted). Past `hang_after_s` the worker
//    is declared hung, SIGKILLed, and restarted; its run is re-queued.
//
//  * Crash/hang detection. Worker EOF, a read error, a corrupt frame,
//    a protocol violation, a fingerprint mismatch, or the hang deadline
//    all count as one worker fault: the process is reaped (SIGKILL +
//    waitpid, idempotent for an already-dead child) and respawned after
//    a deterministic seeded-jitter backoff delay (core/backoff.h). A
//    slot whose restart schedule is exhausted is retired.
//
//  * Graceful degradation. After `degrade_after` consecutive
//    worker-pool faults with no successful result in between — or once
//    every slot is retired — the backend drains the pool and serves all
//    remaining runs in-process, with a loud measure.degraded telemetry
//    event. A degraded session completes with results bitwise-identical
//    to the in-process backend; it never fails the session.
//
// None of this machinery can change a tuning result: a worker only
// reports the pool row it rebuilt from the same seed (validated against
// the dispatcher's pool both per-connection — the hello's pool
// fingerprint — and per-run — the result's row fingerprint), and the
// Collector consumes results strictly in request order. Completion
// order, hedging, restarts, and degradation are visible only in
// measure.* telemetry and wall-clock time.
//
// Fault-injection hooks for tests (read by ceal_worker from its
// environment): CEAL_WORKER_CRASH_AFTER="N" or "IDX:N" makes worker IDX
// (or all workers) SIGKILL itself when it receives its (N+1)-th run
// request; CEAL_WORKER_HANG_AFTER does the same but hangs instead.
//
// Threading: prefetch()/run() must be called from one thread (the
// Collector's, which is the tuner's). One internal reader thread per
// worker moves frames into a completion queue; all dispatch decisions
// happen on the caller's thread.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/backoff.h"
#include "core/json.h"
#include "measure/backend.h"
#include "tuner/session_spec.h"

namespace ceal::telemetry {
class Telemetry;
}

namespace ceal::measure {

struct SubprocessOptions {
  /// Worker process count; clamped to >= 1.
  std::size_t workers = 4;
  /// Worker binary; empty resolves to "<dir of this executable>/
  /// ceal_worker" (default_worker_bin()).
  std::string worker_bin;
  /// Pool-construction arguments forwarded to every worker verbatim
  /// (e.g. {"--workflow","LV","--pool-size","2000","--pool-seed","1"}).
  /// The worker rebuilds the identical pool and proves it via the hello
  /// fingerprint. make_backend() derives them from the session spec.
  std::vector<std::string> worker_args;
  /// Straggler threshold: an in-flight run older than this is hedged to
  /// an idle worker.
  double hedge_after_s = 0.25;
  /// Hang deadline: an in-flight run (or a worker that has not said
  /// hello) older than this gets its worker killed and restarted.
  double hang_after_s = 10.0;
  /// Consecutive worker-pool faults (no successful result in between)
  /// that trigger degradation to in-process execution; clamped to >= 1.
  std::size_t degrade_after = 3;
  /// Restart delay schedule per worker slot (real sleeps, seeded
  /// jitter; see core/backoff.h). Short defaults: a worker restart is
  /// cheap next to a real workflow run.
  BackoffPolicy restart_backoff{0.02, 2.0, 0.25, 0.25, 6};
  /// Roots the restart-jitter streams (xor'd with the slot index).
  std::uint64_t seed = 0;
};

/// "<directory of /proc/self/exe>/ceal_worker" — the sibling-binary
/// default used when SubprocessOptions::worker_bin is empty.
std::string default_worker_bin();

/// Dispatcher-side counters, exposed for tests and benches (the same
/// values feed measure.* telemetry when a Telemetry is attached).
struct SubprocessStats {
  std::uint64_t dispatched = 0;    ///< run frames sent (hedges included)
  std::uint64_t completed = 0;     ///< runs resolved by a worker result
  std::uint64_t hedges = 0;        ///< duplicate dispatches for stragglers
  std::uint64_t hedge_wasted = 0;  ///< loser results discarded
  std::uint64_t retries = 0;       ///< runs re-queued after a worker fault
  std::uint64_t restarts = 0;      ///< worker respawns after a fault
  std::uint64_t retired = 0;       ///< slots whose backoff was exhausted
  std::uint64_t local_runs = 0;    ///< runs served in-process (degraded)
  bool degraded = false;
};

class SubprocessBackend final : public MeasureBackend {
 public:
  /// Spawns the worker pool lazily on the first prefetch()/run().
  /// `pool` is the dispatcher's authoritative copy — every worker
  /// result is validated against it bitwise. `telemetry` may be null.
  SubprocessBackend(const tuner::MeasuredPool& pool,
                    SubprocessOptions options,
                    telemetry::Telemetry* telemetry = nullptr);
  ~SubprocessBackend() override;

  SubprocessBackend(const SubprocessBackend&) = delete;
  SubprocessBackend& operator=(const SubprocessBackend&) = delete;

  const char* name() const override { return "subprocess"; }
  void prefetch(std::span<const std::size_t> indices) override;
  RawRun run(std::size_t pool_index) override;

  bool degraded() const { return degraded_; }
  const SubprocessStats& stats() const { return stats_; }

 private:
  struct Worker;
  struct Event;

  void ensure_started();
  bool spawn_worker(std::size_t slot);
  /// SIGKILL + waitpid + reader join; idempotent for a dead child.
  void reap_worker(Worker& worker);
  /// One worker fault: reap, count, requeue its in-flight run, then
  /// restart after backoff (or retire the slot). May degrade.
  void worker_fault(std::size_t slot, const std::string& why);
  void degrade(const std::string& reason);
  /// Drains events / assigns work / enforces deadlines once; waits up
  /// to `wait_s` for an event when there is nothing else to do.
  void pump(double wait_s);
  void handle_event(const Event& event);
  void handle_message(std::size_t slot, const json::Value& payload);
  void dispatch(std::size_t slot, std::size_t index, bool hedge);
  void enqueue_front(std::size_t index);
  std::size_t live_workers() const;

  const tuner::MeasuredPool* pool_;
  SubprocessOptions options_;
  telemetry::Telemetry* telemetry_;
  std::string worker_bin_;

  std::vector<std::unique_ptr<Worker>> workers_;
  bool started_ = false;
  bool degraded_ = false;
  std::size_t consecutive_failures_ = 0;
  std::uint64_t next_request_id_ = 1;

  std::deque<std::size_t> pending_;       ///< indices awaiting a worker
  std::set<std::size_t> queued_;          ///< members of pending_
  std::map<std::size_t, int> outstanding_;  ///< in-flight copies per index
  std::map<std::size_t, RawRun> completed_;

  SubprocessStats stats_;

  // Completion queue: reader threads push, the caller thread drains.
  std::mutex events_mutex_;
  std::condition_variable events_cv_;
  std::deque<Event> events_;
};

/// Where a session's measurements execute: front-end configuration,
/// not session identity, since no result or journal byte depends on it.
enum class BackendKind { kNone, kInProcess, kSubprocess };

/// "" (kNone: the Collector reads pool rows inline), "inproc" or
/// "subprocess"; anything else throws a one-line PreconditionError.
BackendKind backend_kind(const std::string& name);

/// The backend of session `spec` over `pool` (null for kNone). Subprocess
/// workers get the spec's seed and rebuild its pool, or load `pool_file`
/// when it is not empty. `telemetry` may be null.
std::unique_ptr<MeasureBackend> make_backend(
    BackendKind kind, const tuner::MeasuredPool& pool,
    SubprocessOptions options, const tuner::SessionSpec& spec,
    const std::string& pool_file, telemetry::Telemetry* telemetry);

}  // namespace ceal::measure
