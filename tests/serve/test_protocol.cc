// The daemon's contract with malformed input: every bad request line —
// truncated frames, wrong types, unknown fields/ops/sessions, double
// cancels — produces a structured {"ok":false,"error":"..."} response
// with a one-line "request:<field>: why" message, and never a crash,
// hang, or state change. Plus a randomized round-trip property test
// over the create-request / manifest encoding.
#include "serve/protocol.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/rng.h"
#include "serve/server.h"

namespace ceal::serve {
namespace {

// A fast, valid create request (tiny pool; RS has no surrogate fits).
const char* kCreateLine =
    "{\"op\":\"session.create\",\"id\":\"s1\",\"workflow\":\"LV\","
    "\"objective\":\"exec\",\"budget\":2,\"algorithm\":\"RS\","
    "\"pool_size\":40,\"component_samples\":20,\"seed\":1}";

std::string error_of(const std::string& line) {
  try {
    parse_request(line);
  } catch (const ProtocolError& e) {
    return e.what();
  }
  return "";
}

TEST(ServeProtocolTest, ParsesAValidCreateRequest) {
  const Request req = parse_request(kCreateLine);
  EXPECT_EQ(req.op, Op::kCreate);
  EXPECT_EQ(req.session_id, "s1");
  EXPECT_EQ(req.create.workflow, "LV");
  EXPECT_EQ(req.create.objective, "exec");
  EXPECT_EQ(req.create.algorithm, "RS");
  EXPECT_EQ(req.create.budget, 2u);
  EXPECT_EQ(req.create.pool_size, 40u);
  EXPECT_EQ(req.create.component_samples, 20u);
  EXPECT_EQ(req.create.seed, 1u);
  // Unspecified knobs keep the ceal_tune defaults.
  EXPECT_EQ(req.create.pool_seed, 1u);
  EXPECT_EQ(req.create.max_attempts, 1u);
  EXPECT_FALSE(req.create.history);
}

TEST(ServeProtocolTest, FieldErrorsAreOneLinePathMessages) {
  EXPECT_NE(error_of("{}").find("request:op: missing required field"),
            std::string::npos);
  EXPECT_NE(error_of("{\"op\":7}").find("request:op: expected a string"),
            std::string::npos);
  EXPECT_NE(error_of("{\"op\":\"session.nuke\"}")
                .find("request:op: unknown op"),
            std::string::npos);
  EXPECT_NE(error_of("{\"op\":\"session.step\",\"id\":\"x\",\"steps\":0}")
                .find("request:steps: must be >= 1"),
            std::string::npos);
  EXPECT_NE(error_of("{\"op\":\"session.step\",\"id\":\"x\","
                     "\"steps\":1.5}")
                .find("request:steps: expected an unsigned integer"),
            std::string::npos);
  EXPECT_NE(error_of("{\"op\":\"session.step\",\"id\":\"x\","
                     "\"steps\":-1}")
                .find("request:steps: expected an unsigned integer"),
            std::string::npos);
  EXPECT_NE(error_of("{\"op\":\"session.create\",\"id\":\"s\","
                     "\"workflow\":\"XX\",\"objective\":\"exec\","
                     "\"budget\":1}")
                .find("request:workflow: unknown value \"XX\""),
            std::string::npos);
  EXPECT_NE(error_of("{\"op\":\"session.create\",\"id\":\"s\","
                     "\"workflow\":\"LV\",\"objective\":\"exec\","
                     "\"budget\":0}")
                .find("request:budget: must be >= 1"),
            std::string::npos);
  // Rates of 1 would fail (or corrupt) every attempt: the spec's range
  // is [0, 1), and the wire answers it before a session is built.
  EXPECT_NE(error_of("{\"op\":\"session.create\",\"id\":\"s\","
                     "\"workflow\":\"LV\",\"objective\":\"exec\","
                     "\"budget\":1,\"fault_rate\":1.0}")
                .find("request:fault_rate: must be in [0, 1)"),
            std::string::npos);
  EXPECT_NE(error_of("{\"op\":\"session.create\",\"id\":\"s\","
                     "\"workflow\":\"LV\",\"objective\":\"exec\","
                     "\"budget\":1,\"outlier_rate\":1.0}")
                .find("request:outlier_rate: must be in [0, 1)"),
            std::string::npos);
  EXPECT_NE(error_of("{\"op\":\"session.create\",\"id\":\"s\","
                     "\"workflow\":\"LV\",\"objective\":\"exec\","
                     "\"budget\":1,\"deadline\":-1}")
                .find("request:deadline: must be >= 0"),
            std::string::npos);
  EXPECT_NE(error_of("{\"op\":\"session.create\",\"id\":\"s\","
                     "\"workflow\":\"LV\",\"objective\":\"exec\","
                     "\"budget\":1,\"max_attempts\":0}")
                .find("request:max_attempts: must be >= 1"),
            std::string::npos);
  EXPECT_NE(error_of("{\"op\":\"session.create\",\"id\":\"s\","
                     "\"workflow\":\"LV\",\"objective\":\"exec\","
                     "\"budget\":1,\"bogus\":true}")
                .find("request:bogus: unknown field"),
            std::string::npos);
  EXPECT_NE(error_of("{\"op\":\"session.cancel\",\"id\":\"../etc\"}")
                .find("request:id: may contain only"),
            std::string::npos);
  EXPECT_NE(error_of("{\"op\":\"session.query\",\"id\":\"x\","
                     "\"save_result\":\"\"}")
                .find("request:save_result: must not be empty"),
            std::string::npos);
  EXPECT_NE(error_of("{\"op\":\"server.stats\",\"id\":\"x\"}")
                .find("request:id: unknown field"),
            std::string::npos);
  EXPECT_NE(error_of("[1,2]").find("request: expected a JSON object"),
            std::string::npos);
  EXPECT_NE(error_of("").find("request: invalid JSON"), std::string::npos);
}

// The wire's choice lists are the session registry's: every registered
// name is accepted, and a near miss is refused with the registry's list.
TEST(ServeProtocolTest, AcceptsExactlyTheRegistryNames) {
  const auto create = [](const std::string& workflow,
                         const std::string& objective,
                         const std::string& algorithm) {
    return "{\"op\":\"session.create\",\"id\":\"s\",\"workflow\":\"" +
           workflow + "\",\"objective\":\"" + objective +
           "\",\"budget\":1,\"algorithm\":\"" + algorithm + "\"}";
  };
  std::string expected;
  for (const std::string& name : tuner::algorithm_names()) {
    EXPECT_EQ(parse_request(create("LV", "exec", name)).create.algorithm,
              name);
    expected += (expected.empty() ? "" : "|") + name;
  }
  for (const std::string name : {"LV", "HS", "GP"}) {
    EXPECT_EQ(parse_request(create(name, "exec", "RS")).create.workflow,
              name);
  }
  for (const std::string name : {"exec", "comp"}) {
    EXPECT_EQ(parse_request(create("LV", name, "RS")).create.objective,
              name);
  }
  EXPECT_EQ(error_of(create("LV", "exec", "BO_CEAL")),
            "request:algorithm: unknown value \"BO_CEAL\" (expected " +
                expected + ")");
  EXPECT_NE(error_of(create("lv", "exec", "RS")), "");
  EXPECT_NE(error_of(create("LV", "exec_time", "RS")), "");
}

// Every proper prefix of a valid frame is a structured error, never an
// exception escaping handle_line or an accepted half-request.
TEST(ServeProtocolTest, TruncatedFramesAlwaysAnswerStructuredErrors) {
  ServerCore core{ServerOptions{}};
  const std::string full = kCreateLine;
  for (std::size_t len = 0; len < full.size(); ++len) {
    const std::string response = core.handle_line(full.substr(0, len));
    const json::Value parsed = json::Value::parse(response);
    ASSERT_TRUE(parsed.is_object()) << "len " << len;
    EXPECT_FALSE(parsed.at("ok").as_bool()) << "len " << len;
    EXPECT_TRUE(parsed.contains("error")) << "len " << len;
  }
  // Nothing was created along the way.
  EXPECT_EQ(core.session_count(), 0u);
}

TEST(ServeProtocolTest, UnknownSessionOpsAnswerStructuredErrors) {
  ServerCore core{ServerOptions{}};
  for (const char* line :
       {"{\"op\":\"session.step\",\"id\":\"ghost\"}",
        "{\"op\":\"session.query\",\"id\":\"ghost\"}",
        "{\"op\":\"session.cancel\",\"id\":\"ghost\"}"}) {
    const json::Value response = json::Value::parse(core.handle_line(line));
    EXPECT_FALSE(response.at("ok").as_bool());
    EXPECT_NE(response.at("error").as_string().find(
                  "request:id: unknown session \"ghost\""),
              std::string::npos);
  }
}

TEST(ServeProtocolTest, DuplicateCreateAndDoubleCancelAreErrors) {
  ServerCore core{ServerOptions{}};
  json::Value response = json::Value::parse(core.handle_line(kCreateLine));
  ASSERT_TRUE(response.at("ok").as_bool());
  EXPECT_EQ(core.session_count(), 1u);

  response = json::Value::parse(core.handle_line(kCreateLine));
  EXPECT_FALSE(response.at("ok").as_bool());
  EXPECT_NE(response.at("error").as_string().find("already exists"),
            std::string::npos);

  response = json::Value::parse(
      core.handle_line("{\"op\":\"session.cancel\",\"id\":\"s1\"}"));
  ASSERT_TRUE(response.at("ok").as_bool());
  EXPECT_EQ(response.at("state").as_string(), "cancelled");

  response = json::Value::parse(
      core.handle_line("{\"op\":\"session.cancel\",\"id\":\"s1\"}"));
  EXPECT_FALSE(response.at("ok").as_bool());
  EXPECT_NE(response.at("error").as_string().find(
                "cannot cancel a cancelled session"),
            std::string::npos);
}

TEST(ServeProtocolTest, CreateRejectsABudgetTooSmallForComponentRounds) {
  // CEAL without history charges at least one component round and needs
  // two workflow runs besides: budget 2 is refused up front, in one
  // line, and leaves no session behind.
  ServerCore core{ServerOptions{}};
  const json::Value response = json::Value::parse(core.handle_line(
      "{\"op\":\"session.create\",\"id\":\"s1\",\"workflow\":\"LV\","
      "\"objective\":\"exec\",\"budget\":2,\"algorithm\":\"CEAL\","
      "\"pool_size\":40,\"component_samples\":20,\"seed\":1}"));
  EXPECT_FALSE(response.at("ok").as_bool());
  const std::string error = response.at("error").as_string();
  EXPECT_NE(error.find("budget of at least 3"), std::string::npos) << error;
  EXPECT_EQ(error.find('\n'), std::string::npos) << error;
  EXPECT_EQ(core.session_count(), 0u);
}

TEST(ServeProtocolTest, OverSteppingADoneSessionIsANoOpSuccess) {
  ServerCore core{ServerOptions{}};
  ASSERT_TRUE(
      json::Value::parse(core.handle_line(kCreateLine)).at("ok").as_bool());
  const std::string step_line =
      "{\"op\":\"session.step\",\"id\":\"s1\",\"steps\":100}";
  json::Value response = json::Value::parse(core.handle_line(step_line));
  ASSERT_TRUE(response.at("ok").as_bool());
  ASSERT_EQ(response.at("state").as_string(), "done");
  const std::string done_dump = response.dump();
  // Stepping again changes nothing, reports the same status.
  response = json::Value::parse(core.handle_line(step_line));
  EXPECT_EQ(response.dump(), done_dump);
}

TEST(ServeProtocolTest, StatsReportsCountsAndStates) {
  ServerCore core{ServerOptions{}};
  ASSERT_TRUE(
      json::Value::parse(core.handle_line(kCreateLine)).at("ok").as_bool());
  const json::Value stats =
      json::Value::parse(core.handle_line("{\"op\":\"server.stats\"}"));
  ASSERT_TRUE(stats.at("ok").as_bool());
  EXPECT_EQ(stats.at("sessions").as_int(), 1);
  EXPECT_EQ(stats.at("running").as_int(), 1);
  EXPECT_EQ(stats.at("requests").as_int(), 2);
  EXPECT_EQ(stats.at("errors").as_int(), 0);
}

TEST(ServeProtocolTest, ParsesServerDumpAndRejectsExtraFields) {
  const Request req = parse_request("{\"op\":\"server.dump\"}");
  EXPECT_EQ(req.op, Op::kDump);
  EXPECT_NE(error_of("{\"op\":\"server.dump\",\"id\":\"x\"}")
                .find("request:id: unknown field"),
            std::string::npos);
}

TEST(ServeProtocolTest, DumpReturnsPerSessionFlightRecorders) {
  ServerOptions options;
  options.flight_recorder = 32;
  ServerCore core{options};
  ASSERT_TRUE(
      json::Value::parse(core.handle_line(kCreateLine)).at("ok").as_bool());
  ASSERT_TRUE(json::Value::parse(
                  core.handle_line(
                      "{\"op\":\"session.step\",\"id\":\"s1\",\"steps\":5}"))
                  .at("ok")
                  .as_bool());
  const json::Value dump =
      json::Value::parse(core.handle_line("{\"op\":\"server.dump\"}"));
  ASSERT_TRUE(dump.at("ok").as_bool());
  const json::Value& recorders = dump.at("recorders");
  ASSERT_EQ(recorders.size(), 1u);
  const json::Value& rec = recorders.at(0);
  EXPECT_EQ(rec.at("label").as_string(), "session:s1");
  EXPECT_EQ(rec.at("capacity").as_int(), 32);
  EXPECT_GT(rec.at("events").as_int(), 0);
  // The recent events parse back as trace events, causal span events
  // (with ids) among them.
  const json::Value& recent = rec.at("recent");
  ASSERT_GT(recent.size(), 0u);
  bool saw_span = false;
  for (std::size_t i = 0; i < recent.size(); ++i) {
    EXPECT_TRUE(recent.at(i).contains("event"));
    if (recent.at(i).contains("span_id")) saw_span = true;
  }
  EXPECT_TRUE(saw_span);
}

TEST(ServeProtocolTest, DumpWithoutRecordersReportsNone) {
  ServerCore core{ServerOptions{}};
  const json::Value dump =
      json::Value::parse(core.handle_line("{\"op\":\"server.dump\"}"));
  ASSERT_TRUE(dump.at("ok").as_bool());
  EXPECT_EQ(dump.at("recorders").size(), 0u);
}

// Property: a random valid create request round-trips through JSON and
// parse_request (and through the manifest encoding) unchanged.
TEST(ServeProtocolTest, RandomCreateRequestsRoundTrip) {
  ceal::Rng rng(20260808);
  const std::vector<std::string> workflows = {"LV", "HS", "GP"};
  const std::vector<std::string> objectives = {"exec", "comp"};
  const std::vector<std::string> algorithms = {"CEAL", "AL",      "RS",
                                               "GEIST", "ALpH",   "BO",
                                               "BO-CEAL"};
  for (int trial = 0; trial < 100; ++trial) {
    CreateParams params;
    params.workflow = workflows[rng.uniform_u64(workflows.size())];
    params.objective = objectives[rng.uniform_u64(objectives.size())];
    params.algorithm = algorithms[rng.uniform_u64(algorithms.size())];
    params.budget = 1 + rng.uniform_u64(500);
    params.seed = rng();
    params.pool_size = 1 + rng.uniform_u64(5000);
    params.pool_seed = rng();
    params.component_samples = 1 + rng.uniform_u64(800);
    params.history = rng.uniform_u64(2) == 1;
    params.fault_rate = rng.uniform_u64(2) == 1 ? 0.25 : 0.0;
    params.outlier_rate = rng.uniform_u64(2) == 1 ? 0.125 : 0.0;
    params.deadline_s = rng.uniform_u64(2) == 1 ? 1024.0 : 0.0;
    params.max_attempts = 1 + rng.uniform_u64(4);
    const std::string id = "rt-" + std::to_string(trial);

    // Request encoding: the manifest fields plus the op, minus nothing.
    json::Value request_json = to_manifest(id, params);
    request_json.set("op", json::Value::string("session.create"));
    const Request req = parse_request(request_json.dump());
    EXPECT_EQ(req.op, Op::kCreate);
    EXPECT_EQ(req.session_id, id);

    // Manifest decoding must agree with the request decoding.
    const CreateParams decoded =
        create_from_manifest(to_manifest(id, params), "manifest");
    for (const CreateParams& got : {req.create, decoded}) {
      EXPECT_EQ(got.workflow, params.workflow);
      EXPECT_EQ(got.objective, params.objective);
      EXPECT_EQ(got.algorithm, params.algorithm);
      EXPECT_EQ(got.budget, params.budget);
      EXPECT_EQ(got.seed, params.seed);
      EXPECT_EQ(got.pool_size, params.pool_size);
      EXPECT_EQ(got.pool_seed, params.pool_seed);
      EXPECT_EQ(got.component_samples, params.component_samples);
      EXPECT_EQ(got.history, params.history);
      EXPECT_EQ(got.fault_rate, params.fault_rate);
      EXPECT_EQ(got.outlier_rate, params.outlier_rate);
      EXPECT_EQ(got.deadline_s, params.deadline_s);
      EXPECT_EQ(got.max_attempts, params.max_attempts);
    }
  }
}

// The durable manifest's bytes are what a restarted daemon reads back:
// its field order and number formats stay as older daemons wrote them.
TEST(ServeProtocolTest, ManifestBytesArePinned) {
  CreateParams params;
  params.workflow = "HS";
  params.objective = "comp";
  params.budget = 30;
  params.seed = 9;
  params.pool_size = 300;
  params.component_samples = 80;
  params.fault_rate = 0.25;
  params.deadline_s = 500;
  params.max_attempts = 2;
  EXPECT_EQ(to_manifest("s1", params).dump(),
            "{\"id\":\"s1\",\"workflow\":\"HS\",\"objective\":\"comp\","
            "\"algorithm\":\"CEAL\",\"budget\":30,\"seed\":9,"
            "\"pool_size\":300,\"pool_seed\":1,\"component_samples\":80,"
            "\"history\":false,\"fault_rate\":0.25,\"outlier_rate\":0,"
            "\"deadline\":500,\"max_attempts\":2}");
}

// Fuzz: random garbage lines never escape handle_line as exceptions and
// never create sessions.
TEST(ServeProtocolTest, RandomGarbageNeverEscapesHandleLine) {
  ServerCore core{ServerOptions{}};
  ceal::Rng rng(7);
  const std::string alphabet =
      "{}[]\",:0123456789abcdefgh .\\ntruefalse-+eE";
  for (int trial = 0; trial < 300; ++trial) {
    std::string line;
    const std::size_t len = rng.uniform_u64(60);
    for (std::size_t i = 0; i < len; ++i) {
      line += alphabet[rng.uniform_u64(alphabet.size())];
    }
    const std::string response = core.handle_line(line);
    const json::Value parsed = json::Value::parse(response);
    ASSERT_TRUE(parsed.is_object()) << "input: " << line;
    EXPECT_TRUE(parsed.contains("ok")) << "input: " << line;
  }
  EXPECT_EQ(core.session_count(), 0u);
}

}  // namespace
}  // namespace ceal::serve
