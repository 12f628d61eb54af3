// ceal_worker — one measurement worker process of the distributed
// measurement plane (docs/RELIABILITY.md "Distributed measurement
// plane").
//
// Spawned by measure::SubprocessBackend with its stdin/stdout connected
// to the dispatcher over pipes; stderr stays on the parent's. The worker
// rebuilds the measured pool independently from the same arguments the
// dispatcher used (or loads the same CSV), announces itself with a hello
// frame carrying the pool fingerprint — so version or seed skew is
// caught before it serves a single run — and then answers framed run
// requests with the requested pool row until stdin reaches EOF or a
// shutdown frame arrives.
//
// Fault-injection hooks for the chaos tests (counted per run request;
// the hello is always sent first):
//   CEAL_WORKER_CRASH_AFTER="N"     every worker SIGKILLs itself on its
//                                   (N+1)-th run request
//   CEAL_WORKER_CRASH_AFTER="I:N"   only the worker with --index I does
//   CEAL_WORKER_HANG_AFTER          same addressing, hangs instead
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <thread>

#include "measure/wire.h"
#include "tools/args.h"
#include "tuner/checkpoint.h"
#include "tuner/measured_pool.h"
#include "tuner/pool_io.h"
#include "tuner/session_spec.h"

namespace {

constexpr const char* kUsage =
    "--workflow LV|HS|GP [--pool-size N] [--pool-seed S]\n"
    "  [--pool-file FILE]       load the pool CSV instead of measuring\n"
    "  [--index I]              worker slot index (default 0)\n"
    "\n"
    "Measurement worker for `--measure-backend subprocess`; speaks the\n"
    "journal-framed wire protocol on stdin/stdout. Not meant to be run\n"
    "by hand.";

/// "N" (all workers) or "I:N" (only worker I): the run count after
/// which this worker injects its fault, or nullopt when unaddressed.
std::optional<std::uint64_t> injection_threshold(const char* env_name,
                                                 std::size_t index) {
  const char* raw = std::getenv(env_name);
  if (raw == nullptr || *raw == '\0') return std::nullopt;
  std::string spec(raw);
  const std::size_t colon = spec.find(':');
  if (colon != std::string::npos) {
    const unsigned long long target =
        std::strtoull(spec.substr(0, colon).c_str(), nullptr, 10);
    if (target != index) return std::nullopt;
    spec = spec.substr(colon + 1);
  }
  char* end = nullptr;
  const unsigned long long n = std::strtoull(spec.c_str(), &end, 10);
  if (end == spec.c_str() || *end != '\0') {
    std::cerr << "ceal_worker: malformed " << env_name << "='" << raw
              << "'\n";
    std::exit(2);
  }
  return n;
}

bool write_all(int fd, const std::string& data) {
  std::size_t written = 0;
  while (written < data.size()) {
    const ::ssize_t n =
        ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ceal;
  tools::Args args(argc, argv, kUsage);
  const auto wl_name = args.required("workflow");
  const tuner::SessionSpec defaults;
  const std::size_t pool_size = args.integer("pool-size", defaults.pool_size);
  const auto pool_seed = args.integer("pool-seed", defaults.pool_seed);
  const auto pool_file = args.option("pool-file", "");
  const std::size_t index = args.integer("index", 0);
  args.finish();

  const tuner::MeasuredPool pool = args.or_exit([&] {
    const sim::Workload wl = tuner::workload_by_name(wl_name);
    return pool_file.empty()
               ? tuner::measure_pool(wl.workflow, pool_size, pool_seed)
               : tuner::load_pool_csv(wl.workflow.joint_space(), pool_file);
  });

  const auto crash_after =
      injection_threshold("CEAL_WORKER_CRASH_AFTER", index);
  const auto hang_after =
      injection_threshold("CEAL_WORKER_HANG_AFTER", index);

  measure::FrameWriter writer;
  if (!write_all(1, writer.frame(measure::hello_message(
                     index, static_cast<std::int64_t>(::getpid()),
                     pool.size(), tuner::pool_fingerprint(pool))))) {
    return 1;
  }

  measure::FrameReader frames("dispatcher stdin");
  std::uint64_t handled_runs = 0;
  char buffer[4096];
  for (;;) {
    const ::ssize_t n = ::read(0, buffer, sizeof buffer);
    if (n < 0) {
      if (errno == EINTR) continue;
      std::cerr << "ceal_worker " << index
                << ": stdin read failed: " << std::strerror(errno) << "\n";
      return 1;
    }
    if (n == 0) return 0;  // dispatcher closed the pipe: clean exit
    frames.feed(buffer, static_cast<std::size_t>(n));
    try {
      while (std::optional<json::Value> payload = frames.next()) {
        const std::string& op = measure::message_op(*payload);
        if (op == "shutdown") return 0;
        if (op == "ping") {
          const std::uint64_t id = measure::parse_ping_id(*payload);
          if (!write_all(1, writer.frame(measure::pong_message(id)))) {
            return 1;
          }
          continue;
        }
        if (op != "run") {
          std::cerr << "ceal_worker " << index << ": unexpected op '" << op
                    << "'\n";
          return 1;
        }
        const measure::RunMsg run = measure::parse_run(*payload);
        if (run.index >= pool.size()) {
          std::cerr << "ceal_worker " << index << ": run index "
                    << run.index << " out of range\n";
          return 1;
        }
        if (crash_after && handled_runs == *crash_after) {
          ::raise(SIGKILL);
        }
        if (hang_after && handled_runs == *hang_after) {
          for (;;) std::this_thread::sleep_for(std::chrono::hours(1));
        }
        ++handled_runs;
        const json::Value result = measure::result_message(
            run.id, run.index,
            measure::config_fingerprint(pool, run.index),
            pool.exec_s[run.index], pool.comp_ch[run.index]);
        if (!write_all(1, writer.frame(result))) return 1;
      }
    } catch (const std::exception& e) {
      std::cerr << "ceal_worker " << index << ": " << e.what() << "\n";
      return 1;
    }
  }
}
