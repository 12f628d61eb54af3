#include "serve/protocol.h"

#include <charconv>
#include <concepts>
#include <vector>

namespace ceal::serve {

namespace {

[[noreturn]] void fail(const std::string& where, const std::string& why) {
  throw ProtocolError(where + ": " + why);
}

const json::Value& require(const json::Value& obj, const std::string& key,
                           const std::string& where) {
  const json::Value* v = obj.find(key);
  if (v == nullptr) fail(where + ":" + key, "missing required field");
  return *v;
}

std::string get_string(const json::Value& v, const std::string& where) {
  if (v.kind() != json::Value::Kind::kString) fail(where, "expected a string");
  return v.as_string();
}

// Unsigned integers (seeds, counts) go through from_chars on the exact
// number lexeme: 1.5, -1, and 1e3 are all rejected rather than rounded.
std::uint64_t get_u64(const json::Value& v, const std::string& where) {
  if (v.kind() != json::Value::Kind::kNumber)
    fail(where, "expected an unsigned integer");
  const std::string& lexeme = v.number_lexeme();
  std::uint64_t out = 0;
  const char* end = lexeme.data() + lexeme.size();
  auto [ptr, ec] = std::from_chars(lexeme.data(), end, out);
  if (ec != std::errc() || ptr != end)
    fail(where, "expected an unsigned integer, got " + lexeme);
  return out;
}

// One JSON reader per knob type: the knob's own type picks it.
void read(const json::Value& v, const std::string& where, std::string& out) {
  out = get_string(v, where);
}
void read(const json::Value& v, const std::string& where, bool& out) {
  if (v.kind() != json::Value::Kind::kBool) fail(where, "expected a boolean");
  out = v.as_bool();
}
void read(const json::Value& v, const std::string& where, double& out) {
  if (v.kind() != json::Value::Kind::kNumber) fail(where, "expected a number");
  out = v.as_double();
}
template <std::unsigned_integral T>
void read(const json::Value& v, const std::string& where, T& out) {
  out = get_u64(v, where);
}

json::Value to_json(const std::string& value) {
  return json::Value::string(value);
}
json::Value to_json(bool value) { return json::Value::boolean(value); }
json::Value to_json(double value) { return json::Value::number(value); }
template <std::unsigned_integral T>
json::Value to_json(T value) {
  return json::Value::number(static_cast<std::uint64_t>(value));
}

// Strictness first: any field outside the op's schema is an error, so a
// typo'd knob can never silently fall back to its default.
void reject_unknown(const json::Value& obj,
                    const std::vector<std::string_view>& allowed,
                    const std::string& where) {
  for (const auto& [key, value] : obj.members()) {
    bool known = false;
    for (std::string_view candidate : allowed) {
      if (key == candidate) {
        known = true;
        break;
      }
    }
    if (!known) fail(where + ":" + key, "unknown field");
  }
}

// Session ids double as journal/manifest file stems, so they are held to
// a filename-safe alphabet.
std::string get_session_id(const json::Value& obj, const std::string& where) {
  const std::string id =
      get_string(require(obj, "id", where), where + ":id");
  if (id.empty()) fail(where + ":id", "must not be empty");
  if (id.size() > 64) fail(where + ":id", "must be at most 64 characters");
  for (char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.';
    if (!ok) fail(where + ":id", "may contain only [A-Za-z0-9._-]");
  }
  if (id.front() == '.') fail(where + ":id", "must not start with '.'");
  return id;
}

// op, id and the session spec's knobs.
const std::vector<std::string_view>& create_keys() {
  static const std::vector<std::string_view> keys = [] {
    std::vector<std::string_view> out = {"op", "id"};
    const CreateParams spec;
    tuner::for_each_knob(spec, [&](const char* key, const auto&) {
      out.push_back(key);
    });
    return out;
  }();
  return keys;
}

// The session.create fields minus op/id — shared verbatim with the
// durable manifest, so a request and a resumed manifest cannot drift.
// Only JSON types are checked here; names and ranges are the spec's.
CreateParams parse_create_fields(const json::Value& obj,
                                 const std::string& where) {
  CreateParams p;
  tuner::for_each_knob(p, [&](const std::string& key, auto& value) {
    if (const json::Value* v = obj.find(key)) {
      read(*v, where + ":" + key, value);
    } else if (key == "workflow" || key == "objective" || key == "budget") {
      fail(where + ":" + key, "missing required field");
    }
  });
  try {
    p.validate();
  } catch (const tuner::SpecError& e) {
    throw ProtocolError(where + ":" + e.what());
  }
  return p;
}

}  // namespace

Request parse_request(const std::string& line) {
  json::Value doc;
  try {
    doc = json::Value::parse(line);
  } catch (const std::exception& e) {
    fail("request", std::string("invalid JSON: ") + e.what());
  }
  if (!doc.is_object()) fail("request", "expected a JSON object");

  const std::string op =
      get_string(require(doc, "op", "request"), "request:op");

  Request req;
  if (op == "session.create") {
    req.op = Op::kCreate;
    reject_unknown(doc, create_keys(), "request");
    req.session_id = get_session_id(doc, "request");
    req.create = parse_create_fields(doc, "request");
  } else if (op == "session.step") {
    req.op = Op::kStep;
    reject_unknown(doc, {"op", "id", "steps"}, "request");
    req.session_id = get_session_id(doc, "request");
    if (const json::Value* v = doc.find("steps")) {
      req.steps = get_u64(*v, "request:steps");
      if (req.steps < 1) fail("request:steps", "must be >= 1");
    }
  } else if (op == "session.query") {
    req.op = Op::kQuery;
    reject_unknown(doc, {"op", "id", "save_result"}, "request");
    req.session_id = get_session_id(doc, "request");
    if (const json::Value* v = doc.find("save_result")) {
      req.save_result = get_string(*v, "request:save_result");
      if (req.save_result.empty())
        fail("request:save_result", "must not be empty");
    }
  } else if (op == "session.cancel") {
    req.op = Op::kCancel;
    reject_unknown(doc, {"op", "id"}, "request");
    req.session_id = get_session_id(doc, "request");
  } else if (op == "server.stats") {
    req.op = Op::kStats;
    reject_unknown(doc, {"op"}, "request");
  } else if (op == "server.metrics") {
    req.op = Op::kMetrics;
    reject_unknown(doc, {"op"}, "request");
  } else if (op == "server.dump") {
    req.op = Op::kDump;
    reject_unknown(doc, {"op"}, "request");
  } else {
    fail("request:op", "unknown op \"" + op + "\"");
  }
  return req;
}

const char* op_name(Op op) {
  switch (op) {
    case Op::kCreate: return "create";
    case Op::kStep: return "step";
    case Op::kQuery: return "query";
    case Op::kCancel: return "cancel";
    case Op::kStats: return "stats";
    case Op::kMetrics: return "metrics";
    case Op::kDump: return "dump";
  }
  return "unknown";
}

json::Value error_response(std::string message) {
  json::Value response = json::Value::object();
  response.set("ok", json::Value::boolean(false));
  response.set("error", json::Value::string(std::move(message)));
  return response;
}

json::Value to_manifest(const std::string& id, const CreateParams& params) {
  json::Value m = json::Value::object();
  m.set("id", json::Value::string(id));
  tuner::for_each_knob(params, [&](const char* key, const auto& value) {
    m.set(key, to_json(value));
  });
  return m;
}

CreateParams create_from_manifest(const json::Value& manifest,
                                  const std::string& where) {
  if (!manifest.is_object()) fail(where, "expected a JSON object");
  reject_unknown(manifest, create_keys(), where);
  get_session_id(manifest, where);  // validates the embedded id
  return parse_create_fields(manifest, where);
}

}  // namespace ceal::serve
