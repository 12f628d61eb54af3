// ceal_top — live operational dashboard for a running ceal_serve
// daemon. Polls the server.metrics op over the daemon's Unix socket (or
// watches a --metrics-export snapshot file) and renders the session
// table, counters, and latency histograms; or emits one flat CSV sample
// for scripting.
//
//   ceal_top --socket /tmp/ceal.sock            # live dashboard, 2s poll
//   ceal_top --file /tmp/ceal.metrics.json      # watch an export file
//   ceal_top --socket S --once --csv            # one scriptable sample
//   ceal_top --once --csv --deterministic ...   # byte-stable subset only
//   ceal_top --check-prom /tmp/ceal.metrics.json.prom
//
// --deterministic drops every wall-clock field (timing.* histograms,
// spans among them, and the export-timestamp "timing" object), leaving a
// subset that is byte-identical across daemon thread counts for the
// same request stream — the tier-1 gate diffs it at --threads 1 vs 4.
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/json.h"
#include "core/table.h"
#include "serve/metrics.h"
#include "serve/protocol.h"
#include "tools/args.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#define CEAL_TOP_HAS_SOCKETS 1
#endif

namespace {

using ceal::json::Value;

constexpr const char* kUsage =
    "(--socket PATH | --file FILE | --check-prom FILE)\n"
    "\n"
    "source:\n"
    "  [--socket PATH]          poll a live daemon's server.metrics op\n"
    "  [--file FILE]            read a --metrics-export JSON snapshot\n"
    "\n"
    "output:\n"
    "  [--interval S]           poll period for the dashboard (default: 2)\n"
    "  [--once]                 print one sample and exit\n"
    "  [--csv]                  flat key,value CSV instead of the dashboard\n"
    "  [--deterministic]        drop wall-clock fields (timing.* histograms,\n"
    "                           spans among them, export timestamp) so\n"
    "                           output is byte-stable across daemon thread\n"
    "                           counts\n"
    "\n"
    "validation:\n"
    "  [--check-prom FILE]      strictly validate a Prometheus exposition\n"
    "                           file and exit 0 (2 on any violation)";

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// One round-trip request over the daemon's Unix socket.
std::string query_socket(const std::string& path) {
#ifdef CEAL_TOP_HAS_SOCKETS
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("socket() failed: ") +
                             std::strerror(errno));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    throw std::runtime_error("socket path too long (" +
                             std::to_string(path.size()) + " > " +
                             std::to_string(sizeof(addr.sun_path) - 1) +
                             " bytes): " + path);
  }
  path.copy(addr.sun_path, path.size());
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    // The single most common failure: the daemon is not there. One
    // actionable line — the path and the precise errno ("No such file
    // or directory" = never started / wrong path, "Connection refused"
    // = stale socket file left by a dead daemon.)
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("cannot connect to " + path + ": " +
                             std::strerror(err) +
                             " (is ceal_serve running with --socket " +
                             path + "?)");
  }
  const std::string request = "{\"op\":\"server.metrics\"}\n";
  std::size_t written = 0;
  while (written < request.size()) {
    const ssize_t n =
        ::write(fd, request.data() + written, request.size() - written);
    if (n <= 0) {
      const int err = errno;
      ::close(fd);
      throw std::runtime_error("write to " + path + " failed: " +
                               (n < 0 ? std::strerror(err)
                                      : "connection closed"));
    }
    written += static_cast<std::size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      const int err = errno;
      ::close(fd);
      throw std::runtime_error("read from " + path + " failed: " +
                               std::strerror(err));
    }
    if (n == 0) break;
    response.append(chunk, static_cast<std::size_t>(n));
    if (response.find('\n') != std::string::npos) break;
  }
  ::close(fd);
  const std::size_t eol = response.find('\n');
  if (eol == std::string::npos) {
    throw std::runtime_error(
        "no response from " + path + ": connection closed after " +
        std::to_string(response.size()) +
        " byte(s) without a complete line (daemon draining?)");
  }
  return response.substr(0, eol);
#else
  (void)path;
  throw std::runtime_error("unix sockets are not supported on this platform");
#endif
}

Value fetch(const std::string& socket_path, const std::string& file_path) {
  const std::string text = socket_path.empty()
                               ? read_file(file_path)
                               : query_socket(socket_path);
  Value doc = Value::parse(text);
  if (const Value* ok = doc.find("ok")) {
    if (ok->kind() == Value::Kind::kBool && !ok->as_bool()) {
      const Value* error = doc.find("error");
      throw std::runtime_error("server error: " +
                               (error ? error->as_string() : text));
    }
  }
  return doc;
}

// Flattens the metrics document into dotted key/value CSV rows, in
// document order (deterministic: the document's member order is).
void flatten(const Value& v, const std::string& prefix,
             ceal::Table& out) {
  switch (v.kind()) {
    case Value::Kind::kObject:
      for (const auto& [key, member] : v.members())
        flatten(member, prefix.empty() ? key : prefix + "." + key, out);
      break;
    case Value::Kind::kArray:
      for (std::size_t i = 0; i < v.size(); ++i)
        flatten(v.at(i), prefix + "." + std::to_string(i), out);
      break;
    case Value::Kind::kNumber:
      out.add_row({prefix, v.number_lexeme()});
      break;
    case Value::Kind::kString:
      out.add_row({prefix, v.as_string()});
      break;
    case Value::Kind::kBool:
      out.add_row({prefix, v.as_bool() ? "true" : "false"});
      break;
    case Value::Kind::kNull:
      out.add_row({prefix, "null"});
      break;
  }
}

void print_csv(const Value& metrics, std::ostream& os) {
  ceal::Table table({"metric", "value"});
  flatten(metrics, "", table);
  table.to_csv(os);
}

std::string field_text(const Value& session, const char* key) {
  const Value* v = session.find(key);
  if (v == nullptr) return "-";
  if (v->kind() == Value::Kind::kNumber) return v->number_lexeme();
  if (v->kind() == Value::Kind::kString) return v->as_string();
  return "-";
}

void print_dashboard(const Value& metrics, bool clear_screen,
                     std::ostream& os) {
  if (clear_screen) os << "\x1b[2J\x1b[H";

  if (const Value* server = metrics.find("server")) {
    os << "ceal_serve:";
    for (const char* key : {"sessions", "requests", "errors"}) {
      if (const Value* v = server->find(key))
        os << "  " << key << "=" << v->number_lexeme();
    }
    os << "\n";
    if (const Value* ops = server->find("ops")) {
      os << "ops:";
      for (const auto& [op, tallies] : ops->members()) {
        os << "  " << op << "=" << tallies.at("requests").number_lexeme();
        const Value& errors = tallies.at("errors");
        if (errors.number_lexeme() != "0")
          os << "(!" << errors.number_lexeme() << ")";
      }
      os << "\n";
    }
    os << "\n";
  }

  if (const Value* sessions = metrics.find("sessions")) {
    ceal::Table table({"id", "state", "algo", "wf", "steps", "age", "used",
                       "left", "best", "model", "lag", "rec", "drop"});
    for (std::size_t i = 0; i < sessions->size(); ++i) {
      const Value& s = sessions->at(i);
      table.add_row({field_text(s, "id"), field_text(s, "state"),
                     field_text(s, "algorithm"), field_text(s, "workflow"),
                     field_text(s, "steps"),
                     field_text(s, "session_age_steps"),
                     field_text(s, "budget_used"),
                     field_text(s, "budget_remaining"),
                     field_text(s, "best_value"), field_text(s, "model"),
                     field_text(s, "checkpoint_replay_pending"),
                     field_text(s, "recorder_events"),
                     field_text(s, "recorder_dropped")});
    }
    os << "sessions (" << sessions->size() << "):\n" << table << "\n";
  }

  if (const Value* histograms = metrics.find("histograms")) {
    if (histograms->members().size() > 0) {
      ceal::Table table({"histogram", "count", "sum", "p50", "p90", "p99"});
      for (const auto& [name, h] : histograms->members()) {
        table.add_row({name, h.at("count").number_lexeme(),
                       h.at("sum").number_lexeme(),
                       h.at("p50").number_lexeme(),
                       h.at("p90").number_lexeme(),
                       h.at("p99").number_lexeme()});
      }
      os << "histograms:\n" << table << "\n";
    }
  }

  if (const Value* counters = metrics.find("counters")) {
    if (counters->members().size() > 0) {
      ceal::Table table({"counter", "value"});
      for (const auto& [name, v] : counters->members())
        table.add_row({name, v.number_lexeme()});
      os << "counters:\n" << table;
    }
  }
  os.flush();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ceal;
  tools::Args args(argc, argv, kUsage);

  const auto socket_path = args.option("socket", "");
  const auto file_path = args.option("file", "");
  const auto check_prom = args.option("check-prom", "");
  const double interval = args.real("interval", 2.0);
  const bool once = args.flag("once");
  const bool csv = args.flag("csv");
  const bool deterministic = args.flag("deterministic");
  args.finish();

  try {
    if (!check_prom.empty()) {
      const std::size_t samples =
          serve::validate_prometheus(read_file(check_prom));
      std::cout << check_prom << ": ok (" << samples << " samples)\n";
      return 0;
    }
    if (socket_path.empty() == file_path.empty()) {
      std::cerr << "exactly one of --socket or --file is required\n";
      return 2;
    }
    if (interval <= 0.0) {
      std::cerr << "--interval must be > 0\n";
      return 2;
    }
    for (;;) {
      Value metrics = fetch(socket_path, file_path);
      if (deterministic) metrics = ceal::serve::strip_wall_clock(metrics);
      if (csv)
        print_csv(metrics, std::cout);
      else
        print_dashboard(metrics, /*clear_screen=*/!once, std::cout);
      if (once) break;
      std::this_thread::sleep_for(std::chrono::duration<double>(interval));
    }
  } catch (const std::exception& e) {
    std::cerr << "ceal_top: " << e.what() << "\n";
    return 2;
  }
  return 0;
}
