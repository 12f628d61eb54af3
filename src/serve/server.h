// The ceal_serve daemon core: many concurrent tuning sessions
// multiplexed over newline-delimited JSON (serve/protocol.h).
//
// Two layers:
//  * ServerCore — the session registry and request handler. handle()
//    never throws; every failure becomes {"ok":false,"error":"..."}.
//    Same-session requests must be serialised by the caller (sessions
//    are strand-serialised by serve_stream; a single-threaded caller —
//    the tests — just calls handle_line in order).
//  * serve_stream — the transport loop: reads one request per line,
//    shards session work over a ThreadPool (one logical strand per
//    session id keeps same-session requests in request order), and
//    writes responses strictly in request order. Responses carry no
//    wall-clock values, so the output stream is byte-identical across
//    thread counts (tests/serve/test_session_matrix.cc).
//
// Durability: with a checkpoint directory configured every session gets
// a manifest ("<id>.session.json") and a write-ahead journal
// ("<id>.cealj", tuner/checkpoint.h). A daemon SIGKILLed at any journal
// record boundary restarts with --resume, rebuilds each session from
// its manifest, replays the journal while the client steps, and
// finishes with a bitwise-identical result (tests/integration/
// test_serve_kill_resume.cc; tools/run_tier1.sh kills a real daemon).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/session.h"

namespace ceal::serve {

struct ServerOptions {
  /// Session manifests + journals live here; empty disables durability.
  std::string checkpoint_dir;
  /// Per-session trace sinks ("<id>.trace.jsonl"); empty disables.
  std::string trace_dir;
  /// fsync per-session trace sinks on flush, so a SIGKILL after a
  /// flushed step cannot lose acknowledged trace lines.
  bool trace_fsync = false;
  /// Per-session flight-recorder capacity in events (0 disables): every
  /// session keeps a ring of its most recent serialized events for
  /// server.dump and crash dumps (core/flight_recorder.h).
  std::size_t flight_recorder = 0;
  /// Server metrics (serve.* counters, serve.sessions_active gauge,
  /// serve.step span). Not owned; may be null.
  telemetry::Telemetry* telemetry = nullptr;
  /// Measurement plane of every session this daemon creates or resumes
  /// (measure::make_backend). Daemon configuration, not session
  /// identity: results and journals are byte-identical under any
  /// backend, so a journal written under one backend resumes under
  /// another.
  measure::BackendKind measure_backend = measure::BackendKind::kNone;
  measure::SubprocessOptions subprocess;
};

class ServerCore {
 public:
  explicit ServerCore(ServerOptions options);

  /// Rebuilds every session found in checkpoint_dir (sorted manifest
  /// order) for a restarted daemon; journals replay as the client
  /// steps. Returns the number of sessions resumed. Throws on a corrupt
  /// manifest or journal — a daemon must refuse to start on bad durable
  /// state rather than silently fork sessions.
  std::size_t resume_sessions();

  /// Parses and handles one request line; never throws.
  std::string handle_line(const std::string& line);

  /// Handles one parsed request; never throws. Thread-safe for
  /// different sessions; same-session calls must be serialised.
  json::Value handle(const Request& request);

  /// Counts a request that failed before dispatch (parse error) and
  /// returns its error response. serve_stream uses this for lines that
  /// never became a Request.
  json::Value handle_error(const std::string& message);

  std::size_t session_count() const;
  json::Value stats_json() const;

  /// The server.metrics response: the server block of stats_json under
  /// "server" (with the per-op request/error breakdown), every
  /// telemetry counter/gauge/histogram snapshot, and one per-session
  /// live-progress object (sorted by id). Unlike every other response
  /// this one carries wall-clock values (timing.* histograms, every
  /// span's among them) — consumers needing the byte-stable subset
  /// drop them (`ceal_top --deterministic`). Safe to call from outside
  /// the request path (the periodic metrics exporter does): sessions
  /// synchronise internally.
  json::Value metrics_json() const;

  /// The server.dump response: one entry per flight recorder (the
  /// server telemetry's, then every session's, sorted by id) with its
  /// occupancy counters and the recent events parsed back into JSON.
  /// Events carry `timing` members, so like server.metrics this
  /// response is not byte-stable across thread counts.
  json::Value dump_json() const;

  /// Ids of all registered sessions, sorted. The drain-time Chrome
  /// exporter in ceal_serve walks these to find per-session traces.
  std::vector<std::string> session_ids() const;

  /// Flushes every attached trace sink (per-session sinks; the server
  /// telemetry's sink is the caller's — flush it there). Used on
  /// graceful shutdown/SIGTERM drain.
  void flush_sinks() const;

 private:
  json::Value create_session(const Request& request);
  /// Builds a session with this daemon's options and registers it.
  std::shared_ptr<ServeSession> open_session(const std::string& id,
                                             CreateParams params,
                                             const std::string& journal,
                                             bool resume);
  std::shared_ptr<ServeSession> find_session(const std::string& id) const;
  std::string manifest_path(const std::string& id) const;
  std::string journal_path(const std::string& id) const;
  std::string trace_path(const std::string& id) const;
  /// Recomputes the serve.sessions_active gauge after a state change.
  void update_active_gauge();

  static constexpr std::size_t kOpCount = 7;  // matches enum Op

  ServerOptions options_;
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<ServeSession>> sessions_;
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> errors_{0};
  /// Per-op request/error tallies (indexed by Op), mirrored into the
  /// serve.op.<name> / serve.op.<name>.errors telemetry counters.
  std::array<std::atomic<std::uint64_t>, kOpCount> op_requests_{};
  std::array<std::atomic<std::uint64_t>, kOpCount> op_errors_{};
};

/// Serves newline-delimited JSON requests from `in` until EOF, writing
/// one response per line to `out` in request order. Session work runs
/// on a `threads`-sized ThreadPool (0 = hardware concurrency), one
/// strand per session id. A server.stats, server.metrics, or
/// server.dump request is a barrier: it waits for every earlier request
/// to complete, so its counts are deterministic too.
void serve_stream(ServerCore& core, std::istream& in, std::ostream& out,
                  std::size_t threads);

/// Listens on a Unix stream socket, serving one connection at a time
/// through serve_stream. Replaces any stale socket file. Runs until
/// `should_stop` (checked after every accept, including ones
/// interrupted by a signal) returns true — pass {} to run until the
/// process dies. Throws on socket setup failure.
void serve_unix_socket(ServerCore& core, const std::string& socket_path,
                       std::size_t threads,
                       const std::function<bool()>& should_stop = {});

}  // namespace ceal::serve
