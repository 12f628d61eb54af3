// Wire protocol of the tuning-as-a-service daemon (tools/ceal_serve):
// newline-delimited JSON, one request object per line in, one response
// object per line out, in request order.
//
//   {"op":"session.create","id":"s1","workflow":"LV","objective":"exec",
//    "budget":20,"seed":5}                          -> {"ok":true,...}
//   {"op":"session.step","id":"s1","steps":4}       -> {"ok":true,...}
//   {"op":"session.query","id":"s1"}                -> {"ok":true,...}
//   {"op":"session.cancel","id":"s1"}               -> {"ok":true,...}
//   {"op":"server.stats"}                           -> {"ok":true,...}
//   {"op":"server.metrics"}                         -> {"ok":true,...}
//   {"op":"server.dump"}                            -> {"ok":true,...}
//
// Validation is strict and reuses src/core/json: unknown fields, wrong
// types, and values out of the session spec's ranges are rejected before
// any session state changes, each with a one-line "request:<field>: why"
// error (the same "<where>: why" convention the pool loader and trace
// reader use). A malformed request NEVER takes the server down — the
// daemon answers {"ok":false,"error":"..."} and keeps serving
// (tests/serve/test_protocol.cc holds it to this). docs/SERVING.md is
// the full reference.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/json.h"
#include "tuner/session_spec.h"

namespace ceal::serve {

/// Raised on an invalid request (or manifest); what() is one printable
/// line of the form "<where>: why".
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class Op {
  kCreate,   ///< session.create
  kStep,     ///< session.step
  kQuery,    ///< session.query
  kCancel,   ///< session.cancel
  kStats,    ///< server.stats
  kMetrics,  ///< server.metrics
  kDump,     ///< server.dump (flight-recorder contents)
};

/// Wire name of the op ("create", "step", ...): the <name> in the
/// serve.op.<name> and serve.op.<name>.errors metric families.
const char* op_name(Op op);

/// The session parameters of session.create and of the durable manifest:
/// the one session spec (tuner/session_spec.h) that ceal_tune's flags
/// fill too, so a served session's result CSV is byte-comparable to a
/// `ceal_tune --save-result` run with the matching flags.
using CreateParams = tuner::SessionSpec;

/// One parsed, validated request.
struct Request {
  Op op = Op::kStats;
  std::string session_id;      ///< empty only for server.stats
  std::size_t steps = 1;       ///< session.step: slices to run (>= 1)
  std::string save_result;     ///< session.query: optional result CSV path
  CreateParams create;         ///< session.create payload
};

/// Parses and strictly validates one request line. Throws ProtocolError
/// ("request:<field>: why") on anything malformed; never mutates state.
Request parse_request(const std::string& line);

/// {"ok":false,"error":message}
json::Value error_response(std::string message);

/// CreateParams <-> manifest JSON (the durable "<id>.session.json" the
/// daemon writes next to a session's journal so `--resume` can rebuild
/// the session). `where` prefixes field errors with the manifest path.
json::Value to_manifest(const std::string& id, const CreateParams& params);
CreateParams create_from_manifest(const json::Value& manifest,
                                  const std::string& where);

}  // namespace ceal::serve
