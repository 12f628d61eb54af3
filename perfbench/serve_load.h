// Load generators for the serve workload. Both drive the real daemon
// loop, serve::serve_stream, through an input stream the generator feeds
// line by line and an output stream whose every response line is
// timestamped as serve_stream writes it.
//
//  * closed loop: one client per session, each sending its next
//    session.step only after the reply to its previous one arrived;
//  * open loop: the step script is sent on a seeded Poisson schedule
//    regardless of replies, and each request is timed from the moment it
//    was due, so a stall is charged to every request queued behind it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/server.h"

namespace perfbench {

struct ClosedLoopResult {
  double wall_s = 0.0;
  std::size_t steps = 0;      ///< session.step replies received
  std::size_t failed = 0;     ///< replies with ok:false
  std::vector<double> session_s;  ///< first step sent -> final reply
  /// Per session (same order as the ids): the reply that ended it, and
  /// the number of session.step requests it took.
  std::vector<std::string> final_status;
  std::vector<std::size_t> requests;
};

/// Steps every session in `ids` to completion, one closed-loop client per
/// session, through serve_stream on `threads` workers.
ClosedLoopResult run_closed_loop(ceal::serve::ServerCore& core,
                                 const std::vector<std::string>& ids,
                                 std::size_t threads);

struct OpenLoopResult {
  std::size_t requests = 0;
  std::size_t failed = 0;
  /// Per request: reply time minus due time; +inf for a failed request.
  std::vector<double> latency_ms;
  /// Per request: how late the generator sent it.
  std::vector<double> generator_late_ms;
  /// Per session: its last reply.
  std::vector<std::string> final_status;
};

/// Sends session i `requests[i]` session.step requests, round-robin over
/// `ids`, at a mean of `rate_per_s` requests per second (exponential gaps
/// drawn from `schedule_seed`) through serve_stream on `threads` workers.
OpenLoopResult run_open_loop(ceal::serve::ServerCore& core,
                             const std::vector<std::string>& ids,
                             const std::vector<std::size_t>& requests,
                             double rate_per_s,
                             std::uint64_t schedule_seed,
                             std::size_t threads);

/// The session.step request line for session `id`.
std::string step_line(const std::string& id);

}  // namespace perfbench
