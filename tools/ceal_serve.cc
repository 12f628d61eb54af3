// ceal_serve — tuning-as-a-service: a long-lived daemon multiplexing
// many concurrent tuning sessions over newline-delimited JSON
// (docs/SERVING.md has the protocol reference).
//
//   ceal_serve                              # serve requests on stdio
//   ceal_serve --socket /tmp/ceal.sock      # serve a Unix socket
//   ceal_serve --checkpoint DIR             # journal every session
//   ceal_serve --checkpoint DIR --resume    # rebuild sessions after a kill
//   ceal_serve --metrics-export FILE        # periodic metrics snapshots
//
// SIGTERM/SIGINT drain: in --socket mode the handlers set a stop flag
// (installed without SA_RESTART so a blocked accept returns EINTR), the
// accept loop exits after the in-flight connection, every trace sink is
// flushed, and a final metrics snapshot is written.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <ctime>
#include <iostream>
#include <mutex>
#include <optional>
#include <thread>

#include "core/atomic_file.h"
#include "core/flight_recorder.h"
#include "core/telemetry.h"
#include "serve/metrics.h"
#include "serve/server.h"
#include "tools/args.h"
#include "tools/chrome_trace.h"
#include "tools/trace_io.h"

namespace {

constexpr const char* kUsage =
    "[--socket PATH] [--checkpoint DIR [--resume]]\n"
    "\n"
    "server:\n"
    "  [--socket PATH]          listen on a Unix stream socket instead of\n"
    "                           serving requests from stdin to stdout\n"
    "  [--threads N]            session worker threads (default: all cores)\n"
    "\n"
    "durability:\n"
    "  [--checkpoint DIR]       journal every session to DIR/<id>.cealj\n"
    "                           with a DIR/<id>.session.json manifest\n"
    "  [--resume]               rebuild the sessions journaled in DIR; a\n"
    "                           resumed session replays its journal while\n"
    "                           the client steps it (bitwise-identical\n"
    "                           results after a SIGKILL)\n"
    "\n"
    "measurement plane (docs/RELIABILITY.md):\n"
    "  [--measure-backend inproc|subprocess]  where session measurements\n"
    "                           execute (default: inline pool reads;\n"
    "                           results are identical under any backend)\n"
    "  [--measure-workers N]    subprocess workers per session (default 4)\n"
    "  [--worker-bin PATH]      worker binary (default: sibling\n"
    "                           ceal_worker)\n"
    "  [--hedge-after-s S]      straggler hedging threshold (default 0.25)\n"
    "  [--hang-after-s S]       worker hang deadline (default 10)\n"
    "  [--degrade-after K]      consecutive faults before a session falls\n"
    "                           back in-process (default 3)\n"
    "\n"
    "observability:\n"
    "  [--trace FILE]           stream server JSONL trace events to FILE\n"
    "  [--trace-dir DIR]        per-session traces in DIR/<id>.trace.jsonl\n"
    "                           (fsynced per step slice; Chrome trace\n"
    "                           exports DIR/<id>.chrome.json on drain)\n"
    "  [--flight-recorder N]    keep the last N trace events per session\n"
    "                           (and for the server) in an in-memory ring;\n"
    "                           dumped by server.dump, on drain, and by the\n"
    "                           SIGSEGV/SIGABRT/SIGBUS crash handler\n"
    "  [--flight-dump FILE]     crash/drain dump path (default:\n"
    "                           ceal_serve.flight.jsonl)\n"
    "  [--metrics-export FILE]  atomically write the server.metrics\n"
    "                           snapshot to FILE (JSON) and FILE.prom\n"
    "                           (Prometheus text) every interval and once\n"
    "                           at shutdown\n"
    "  [--metrics-interval S]   export period in seconds (default: 5)\n"
    "  [--metrics-summary]      print the telemetry table to stderr on exit";

volatile std::sig_atomic_t g_stop = 0;

void handle_stop_signal(int) { g_stop = 1; }

// Install without SA_RESTART so a blocked accept(2) sees EINTR and the
// serve loop can observe the stop flag.
void install_stop_handlers() {
  struct sigaction action{};
  action.sa_handler = handle_stop_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
}

// Writes one snapshot pair: FILE (JSON, wall timestamp under the
// top-level "timing" object so determinism filters strip it) and
// FILE.prom (Prometheus text exposition). Both via atomic rename, so a
// concurrent reader never sees a torn file.
void export_snapshot(const ceal::serve::ServerCore& core,
                     const std::string& path) {
  namespace json = ceal::json;
  json::Value snapshot = core.metrics_json();
  json::Value timing = json::Value::object();
  timing.set("exported_unix_s",
             json::Value::number(static_cast<double>(std::time(nullptr))));
  snapshot.set("timing", std::move(timing));
  {
    ceal::AtomicFile file(path);
    file.stream() << snapshot.dump() << '\n';
    file.commit();
  }
  {
    ceal::AtomicFile file(path + ".prom");
    file.stream() << ceal::serve::to_prometheus(snapshot);
    file.commit();
  }
}

// Periodic exporter thread: wakes every `interval_s`, or immediately on
// shutdown (condition variable, not a sleep, so exit is prompt).
class MetricsExporter {
 public:
  MetricsExporter(const ceal::serve::ServerCore& core, std::string path,
                  double interval_s)
      : core_(core), path_(std::move(path)), interval_s_(interval_s) {
    thread_ = std::thread([this] { run(); });
  }

  ~MetricsExporter() { stop(); }

  /// Stops the thread and writes one final snapshot.
  void stop() {
    {
      std::lock_guard lock(mutex_);
      if (done_) return;
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
    try {
      export_snapshot(core_, path_);
    } catch (const std::exception& e) {
      std::cerr << "metrics export failed: " << e.what() << "\n";
    }
  }

 private:
  void run() {
    const auto period = std::chrono::duration<double>(interval_s_);
    std::unique_lock lock(mutex_);
    while (!done_) {
      if (cv_.wait_for(lock, period, [this] { return done_; })) break;
      lock.unlock();
      try {
        export_snapshot(core_, path_);
      } catch (const std::exception& e) {
        std::cerr << "metrics export failed: " << e.what() << "\n";
      }
      lock.lock();
    }
  }

  const ceal::serve::ServerCore& core_;
  std::string path_;
  double interval_s_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace ceal;
  tools::Args args(argc, argv, kUsage);

  const auto socket_path = args.option("socket", "");
  const std::size_t threads = args.integer("threads", 0);
  const auto checkpoint_dir = args.option("checkpoint", "");
  const bool resume = args.flag("resume");
  const auto trace_path = args.option("trace", "");
  const auto trace_dir = args.option("trace-dir", "");
  const std::size_t flight_capacity = args.integer("flight-recorder", 0);
  const auto flight_dump = args.option("flight-dump",
                                       "ceal_serve.flight.jsonl");
  const auto metrics_export = args.option("metrics-export", "");
  const double metrics_interval = args.real("metrics-interval", 5.0);
  const bool metrics_summary = args.flag("metrics-summary");
  const auto measure_backend = args.option("measure-backend", "");
  serve::ServerOptions options;
  measure::SubprocessOptions& subprocess = options.subprocess;
  subprocess.workers = args.integer("measure-workers", subprocess.workers);
  subprocess.worker_bin = args.option("worker-bin", subprocess.worker_bin);
  subprocess.hedge_after_s =
      args.real("hedge-after-s", subprocess.hedge_after_s);
  subprocess.hang_after_s = args.real("hang-after-s", subprocess.hang_after_s);
  subprocess.degrade_after =
      args.integer("degrade-after", subprocess.degrade_after);
  args.finish();

  options.measure_backend =
      args.or_exit([&] { return measure::backend_kind(measure_backend); });

  if (resume && checkpoint_dir.empty()) {
    std::cerr << "--resume requires --checkpoint DIR\n";
    return 2;
  }
  if (metrics_interval <= 0.0) {
    std::cerr << "--metrics-interval must be > 0\n";
    return 2;
  }

  // The protocol owns stdout; every diagnostic goes to stderr.
  std::optional<telemetry::JsonlTraceSink> sink;
  if (!trace_path.empty()) sink.emplace(trace_path);
  telemetry::Telemetry telemetry(sink ? &*sink : nullptr);

  // Flight recorder for the server's own telemetry, plus the crash
  // handler that dumps every registered ring (this one and each
  // session's) on SIGSEGV/SIGABRT/SIGBUS.
  std::optional<telemetry::FlightRecorder> server_recorder;
  if (flight_capacity > 0) {
    server_recorder.emplace(flight_capacity);
    telemetry.set_flight_recorder(&*server_recorder);
    telemetry::register_crash_recorder(&*server_recorder, "server");
    telemetry::install_crash_dump_handler(flight_dump);
  }

  options.checkpoint_dir = checkpoint_dir;
  options.trace_dir = trace_dir;
  // Per-slice flushes reach the disk, so a crash dump's ring tail can
  // be matched against the on-disk trace (tier-1 crash-dump gate).
  options.trace_fsync = !trace_dir.empty();
  options.flight_recorder = flight_capacity;
  options.telemetry = &telemetry;

  try {
    serve::ServerCore core(options);
    if (resume) {
      const std::size_t resumed = core.resume_sessions();
      std::cerr << "resumed " << resumed << " session(s) from "
                << checkpoint_dir << "\n";
    }
    std::optional<MetricsExporter> exporter;
    if (!metrics_export.empty())
      exporter.emplace(core, metrics_export, metrics_interval);
    if (!socket_path.empty()) {
      install_stop_handlers();
      std::cerr << "listening on " << socket_path << "\n";
      serve::serve_unix_socket(core, socket_path, threads,
                               [] { return g_stop != 0; });
      if (g_stop != 0) std::cerr << "stop signal received, draining\n";
    } else {
      serve::serve_stream(core, std::cin, std::cout, threads);
    }
    // Graceful drain: flush per-session trace sinks, then (via the
    // exporter destructor below) write the final metrics snapshot.
    core.flush_sinks();
    if (exporter) exporter->stop();
    // Chrome trace export of every per-session trace, self-validated,
    // written atomically beside the JSONL.
    if (!trace_dir.empty()) {
      for (const std::string& id : core.session_ids()) {
        const std::string jsonl = trace_dir + "/" + id + ".trace.jsonl";
        try {
          const auto events = tools::read_trace_file(jsonl);
          json::Value doc = tools::export_chrome_trace(events);
          const std::size_t spans = tools::validate_chrome_trace(doc);
          AtomicFile file(trace_dir + "/" + id + ".chrome.json");
          file.stream() << doc.dump() << '\n';
          file.commit();
          std::cerr << "exported " << spans << " span(s) to " << trace_dir
                    << "/" << id << ".chrome.json\n";
        } catch (const std::exception& e) {
          std::cerr << "chrome export skipped for session " << id << ": "
                    << e.what() << "\n";
        }
      }
    }
    // Drain-time flight-recorder dump — same shape as a crash dump, but
    // through AtomicFile since we are not in a signal handler.
    if (flight_capacity > 0) {
      AtomicFile file(flight_dump);
      file.stream() << telemetry::dump_registered_recorders();
      file.commit();
      std::cerr << "flight recorder dumped to " << flight_dump << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }

  telemetry.emit(telemetry.summary_event());
  if (sink) sink->flush();
  if (metrics_summary) std::cerr << telemetry.summary_table();
  return 0;
}
