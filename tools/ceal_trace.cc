// ceal_trace — inspect JSONL traces produced by `ceal_tune --trace`.
//
//   ceal_trace --input trace.jsonl             per-session report
//   ceal_trace --input trace.jsonl --csv       tables as CSV
//   ceal_trace --input a.jsonl --check-determinism b.jsonl
//   ceal_trace --input trace.jsonl --chrome out.json [--strip-ts]
//   ceal_trace --check-chrome out.json
//
// The determinism check parses both traces, strips every `timing`
// sub-object (the only place wall-clock is allowed, see
// docs/OBSERVABILITY.md), re-serialises, and compares event by event;
// any divergence exits 1. Two runs of the same seeded session must pass.
//
// --chrome converts the trace's causal span events into the Chrome
// trace-event format (chrome://tracing, Perfetto) and self-validates
// the result before reporting; --strip-ts replaces wall-clock
// timestamps with trace positions so exports of same-seed runs are
// byte-identical. --check-chrome re-validates an existing export.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/json.h"
#include "core/table.h"
#include "core/telemetry.h"
#include "tools/args.h"
#include "tools/chrome_trace.h"
#include "tools/trace_io.h"

namespace {

using ceal::Table;
using ceal::json::Value;

constexpr const char* kUsage =
    "--input FILE [--csv | --check-determinism FILE2 | --chrome OUT]\n"
    "  --input FILE              JSONL trace from `ceal_tune --trace`\n"
    "  [--csv]                   emit report tables as CSV\n"
    "  [--check-determinism F2]  compare two traces modulo `timing`;\n"
    "                            exits 1 when they diverge\n"
    "  [--chrome OUT]            export causal spans as Chrome trace JSON\n"
    "  [--strip-ts]              deterministic ts (trace position) in the\n"
    "                            Chrome export, for byte comparison\n"
    "  [--check-chrome FILE]     validate an existing Chrome export\n"
    "                            (standalone; --input not needed)";

/// Strict shared reader (tools/trace_io.h): malformed lines and empty
/// traces print one line and exit 2.
std::vector<Value> read_trace(const std::string& path) {
  try {
    return ceal::tools::read_trace_file(path);
  } catch (const ceal::tools::TraceReadError& e) {
    std::cerr << "ceal_trace: " << e.what() << "\n";
    std::exit(2);
  }
}

/// The event re-serialised with every `timing` sub-object removed — the
/// deterministic residue two seeded runs must agree on.
std::string canonical_no_timing(const Value& event) {
  Value stripped = event;
  stripped.remove_recursive("timing");
  return stripped.dump();
}

int check_determinism(const std::string& a_path, const std::string& b_path) {
  const auto a = read_trace(a_path);
  const auto b = read_trace(b_path);
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::string ca = canonical_no_timing(a[i]);
    const std::string cb = canonical_no_timing(b[i]);
    if (ca != cb) {
      std::cout << "traces diverge at event " << i + 1 << " (timing "
                << "stripped):\n  " << a_path << ": " << ca << "\n  "
                << b_path << ": " << cb << "\n";
      return 1;
    }
  }
  if (a.size() != b.size()) {
    std::cout << "traces diverge: " << a.size() << " vs " << b.size()
              << " events (first " << n << " identical)\n";
    return 1;
  }
  std::cout << "traces match: " << n
            << " events identical after stripping timing\n";
  return 0;
}

/// Exports the trace's span events as Chrome trace JSON, then runs the
/// strict validator over the document just produced — an export that
/// fails its own validation is a bug, not a report.
int export_chrome(const std::string& input, const std::string& out_path,
                  bool strip_ts) {
  const auto events = read_trace(input);
  Value doc;
  std::size_t pairs = 0;
  try {
    doc = ceal::tools::export_chrome_trace(events, strip_ts);
    pairs = ceal::tools::validate_chrome_trace(doc);
  } catch (const ceal::tools::ChromeTraceError& e) {
    std::cerr << "ceal_trace: " << input << ": " << e.what() << "\n";
    return 2;
  }
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "ceal_trace: cannot open '" << out_path << "' for writing\n";
    return 2;
  }
  doc.write(out);
  out << "\n";
  if (!out.flush()) {
    std::cerr << "ceal_trace: write to '" << out_path << "' failed\n";
    return 2;
  }
  std::cout << out_path << ": " << pairs << " spans ("
            << doc.at("traceEvents").size() << " trace events"
            << (strip_ts ? ", ts stripped" : "") << ")\n";
  return 0;
}

/// Validates an existing Chrome export; exits 1 on the first violation.
int check_chrome(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "ceal_trace: cannot open '" << path << "'\n";
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Value doc;
  try {
    doc = Value::parse(buffer.str());
  } catch (const std::exception& e) {
    std::cout << path << ": invalid JSON: " << e.what() << "\n";
    return 1;
  }
  try {
    const std::size_t pairs = ceal::tools::validate_chrome_trace(doc);
    std::cout << path << ": ok (" << pairs << " spans)\n";
    return 0;
  } catch (const ceal::tools::ChromeTraceError& e) {
    std::cout << path << ": " << e.what() << "\n";
    return 1;
  }
}

// --- Field helpers (schema is open; absent fields degrade to blanks). ---

std::string text_field(const Value& event, std::string_view key) {
  const Value* v = event.find(key);
  return v != nullptr ? v->as_string() : std::string();
}

/// The exact number lexeme, for lossless display of integers.
std::string num_field(const Value& event, std::string_view key) {
  const Value* v = event.find(key);
  return v != nullptr ? v->number_lexeme() : std::string();
}

double real_field(const Value& event, std::string_view key, double fallback) {
  const Value* v = event.find(key);
  return v != nullptr ? v->as_double() : fallback;
}

double timing_field(const Value& event, std::string_view key,
                    double fallback) {
  const Value* timing = event.find("timing");
  if (timing == nullptr) return fallback;
  const Value* v = timing->find(key);
  return v != nullptr ? v->as_double() : fallback;
}

bool is_iteration_event(const std::string& name) {
  return name.ends_with(".iteration") || name == "rs.sweep";
}

/// One tuning session: its tune.start event plus everything up to (and
/// including) the next tune.finish.
struct Session {
  const Value* start = nullptr;
  std::vector<const Value*> events;
};

std::vector<Session> split_sessions(const std::vector<Value>& events) {
  std::vector<Session> sessions;
  for (const auto& event : events) {
    const std::string name = text_field(event, "event");
    if (name == "tune.start" || sessions.empty()) {
      sessions.emplace_back();
      if (name == "tune.start") {
        sessions.back().start = &event;
        continue;
      }
    }
    sessions.back().events.push_back(&event);
  }
  return sessions;
}

void print_table(const Table& table, bool csv) {
  if (csv) {
    table.to_csv(std::cout);
  } else {
    std::cout << table;
  }
}

void report_session(std::size_t index, const Session& session, bool csv) {
  std::cout << (csv ? "# " : "") << "session " << index + 1 << ": ";
  if (session.start != nullptr) {
    const Value& s = *session.start;
    std::cout << text_field(s, "algorithm") << " on "
              << text_field(s, "workflow") << " (" << text_field(s, "objective")
              << ", budget " << num_field(s, "budget") << ")";
  } else {
    std::cout << "(no tune.start event)";
  }
  std::cout << "\n";

  // Per-iteration table.
  Table iterations({"iter", "event", "model", "batch", "ok", "best",
                    "budget used", "remaining", "fit (s)"});
  std::size_t iteration_rows = 0;
  for (const Value* event : session.events) {
    const std::string name = text_field(*event, "event");
    if (!is_iteration_event(name)) continue;
    ++iteration_rows;
    std::string best;
    if (const Value* values = event->find("batch_values");
        values != nullptr && values->size() > 0) {
      double lowest = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < values->size(); ++i) {
        lowest = std::min(lowest, values->at(i).as_double());
      }
      best = Table::num(lowest, 3);
    }
    const Value* batch = event->find("batch");
    iterations.add_row(
        {num_field(*event, "iteration"), name, text_field(*event, "model"),
         batch != nullptr ? std::to_string(batch->size()) : "",
         num_field(*event, "batch_ok"), best,
         num_field(*event, "budget_used"),
         num_field(*event, "budget_remaining"),
         Table::num(timing_field(*event, "fit_s", 0.0), 4)});
  }
  if (iteration_rows > 0) print_table(iterations, csv);

  // CEAL model-switch point and top-up injections.
  bool is_ceal = false;
  bool switched = false;
  std::size_t topup_events = 0;
  double topup_injected = 0.0;
  for (const Value* event : session.events) {
    const std::string name = text_field(*event, "event");
    if (name == "ceal.iteration") is_ceal = true;
    if (name == "ceal.switch") {
      switched = true;
      std::cout << (csv ? "# " : "  ") << "model switch at iteration "
                << num_field(*event, "iteration") << " (recall M_L "
                << Table::num(real_field(*event, "recall_low", 0.0), 1)
                << ", M_H "
                << Table::num(real_field(*event, "recall_high", 0.0), 1)
                << ")\n";
    }
    if (name == "ceal.topup") {
      ++topup_events;
      topup_injected += real_field(*event, "injected", 0.0);
    }
  }
  if (is_ceal && !switched) {
    std::cout << (csv ? "# " : "  ")
              << "no model switch (low-fidelity model retained)\n";
  }
  if (topup_events > 0) {
    std::cout << (csv ? "# " : "  ") << "top-ups: " << topup_events
              << " (injected " << Table::num(topup_injected, 0)
              << " random samples)\n";
  }

  // Failure-rate breakdown over measure events.
  std::size_t requests = 0, ok = 0, failed = 0, censored = 0, retries = 0;
  for (const Value* event : session.events) {
    if (text_field(*event, "event") != "measure") continue;
    ++requests;
    const std::string status = text_field(*event, "status");
    if (status == "ok") ++ok;
    if (status == "failed") ++failed;
    if (status == "censored") ++censored;
    const double attempts = real_field(*event, "attempts", 1.0);
    if (attempts > 1.0) retries += static_cast<std::size_t>(attempts) - 1;
  }
  if (requests > 0) {
    const auto rate = [&](std::size_t n) {
      return Table::num(100.0 * static_cast<double>(n) /
                            static_cast<double>(requests),
                        1) +
             "%";
    };
    Table failures({"status", "count", "rate"});
    failures.add_row({"ok", std::to_string(ok), rate(ok)});
    failures.add_row({"failed", std::to_string(failed), rate(failed)});
    failures.add_row({"censored", std::to_string(censored), rate(censored)});
    failures.add_row({"retries", std::to_string(retries), ""});
    print_table(failures, csv);
  }

  // Phase-timing profile from the session's telemetry.summary event:
  // span `x` is the field `x.count` plus the histogram `timing.x_s`.
  const Value* summary = nullptr;
  for (const Value* event : session.events) {
    if (text_field(*event, "event") == "telemetry.summary") summary = event;
  }
  const Value* timing = summary ? summary->find("timing") : nullptr;
  if (timing != nullptr && timing->members().size() > 0) {
    Table phases({"span", "count", "total (s)", "p50 (s)", "p99 (s)"});
    for (const auto& [key, value] : summary->members()) {
      if (!key.ends_with(".count") || key.starts_with("hist.") ||
          value.kind() != Value::Kind::kNumber) {
        continue;
      }
      const std::string span = key.substr(0, key.size() - 6);
      const std::string hist =
          "hist." + ceal::telemetry::span_histogram_name(span) + ".";
      if (timing->find(hist + "sum") == nullptr) continue;
      phases.add_row({span, value.number_lexeme(),
                      Table::num(real_field(*timing, hist + "sum", 0.0), 6),
                      Table::num(real_field(*timing, hist + "p50", 0.0), 6),
                      Table::num(real_field(*timing, hist + "p99", 0.0), 6)});
    }
    print_table(phases, csv);
  }
}

}  // namespace

int main(int argc, char** argv) {
  ceal::tools::Args args(argc, argv, kUsage);
  const auto chrome_in = args.option("check-chrome", "");
  if (!chrome_in.empty()) {
    args.finish();
    return check_chrome(chrome_in);
  }
  const auto input = args.required("input");
  const auto other = args.option("check-determinism", "");
  const auto chrome_out = args.option("chrome", "");
  const bool strip_ts = args.flag("strip-ts");
  const bool csv = args.flag("csv");
  args.finish();

  if (!other.empty()) return check_determinism(input, other);
  if (!chrome_out.empty()) return export_chrome(input, chrome_out, strip_ts);

  const auto events = read_trace(input);
  std::cout << (csv ? "# " : "") << input << ": " << events.size()
            << " events\n";
  const auto sessions = split_sessions(events);
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    report_session(i, sessions[i], csv);
  }
  return 0;
}
