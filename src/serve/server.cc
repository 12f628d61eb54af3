#include "serve/server.h"

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <istream>
#include <ostream>
#include <sstream>
#include <thread>
#include <vector>

#include "core/atomic_file.h"
#include "core/flight_recorder.h"
#include "core/thread_pool.h"
#include "serve/metrics.h"

#if !defined(_WIN32)
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace ceal::serve {

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ProtocolError(path + ": cannot open");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool file_non_empty(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return !ec && size > 0;
}

}  // namespace

ServerCore::ServerCore(ServerOptions options)
    : options_(std::move(options)) {
  if (!options_.checkpoint_dir.empty())
    std::filesystem::create_directories(options_.checkpoint_dir);
  if (!options_.trace_dir.empty())
    std::filesystem::create_directories(options_.trace_dir);
  update_active_gauge();
}

std::string ServerCore::manifest_path(const std::string& id) const {
  return options_.checkpoint_dir + "/" + id + ".session.json";
}

std::string ServerCore::journal_path(const std::string& id) const {
  return options_.checkpoint_dir + "/" + id + ".cealj";
}

std::string ServerCore::trace_path(const std::string& id) const {
  if (options_.trace_dir.empty()) return {};
  return options_.trace_dir + "/" + id + ".trace.jsonl";
}

void ServerCore::update_active_gauge() {
  if (options_.telemetry == nullptr) return;
  std::size_t active = 0;
  {
    std::lock_guard lock(mutex_);
    for (const auto& [id, session] : sessions_) {
      if (session->state() == SessionState::kRunning) ++active;
    }
  }
  options_.telemetry->gauge("serve.sessions_active",
                            static_cast<double>(active));
}

std::size_t ServerCore::resume_sessions() {
  if (options_.checkpoint_dir.empty()) return 0;
  // Sorted manifest order: resume construction is deterministic no
  // matter what order the directory iterator yields.
  std::vector<std::string> manifests;
  for (const auto& entry :
       std::filesystem::directory_iterator(options_.checkpoint_dir)) {
    const std::string name = entry.path().filename().string();
    constexpr std::string_view kSuffix = ".session.json";
    if (name.size() > kSuffix.size() &&
        name.compare(name.size() - kSuffix.size(), kSuffix.size(),
                     kSuffix.data()) == 0) {
      manifests.push_back(entry.path().string());
    }
  }
  std::sort(manifests.begin(), manifests.end());

  std::size_t resumed = 0;
  for (const std::string& path : manifests) {
    json::Value manifest;
    try {
      manifest = json::Value::parse(slurp(path));
    } catch (const std::exception& e) {
      throw ProtocolError(path + ": invalid manifest: " + e.what());
    }
    CreateParams params = create_from_manifest(manifest, path);
    const std::string id = manifest.at("id").as_string();
    const std::string stem =
        std::filesystem::path(path).filename().string();
    if (stem != id + ".session.json") {
      throw ProtocolError(path + ": manifest id \"" + id +
                          "\" does not match the filename");
    }
    // A journal with at least the header record replays on resume; a
    // session killed before its first durable record starts fresh.
    const std::string journal = journal_path(id);
    const bool resume = file_non_empty(journal);
    open_session(id, std::move(params), journal, resume);
    ++resumed;
  }
  update_active_gauge();
  return resumed;
}

std::string ServerCore::handle_line(const std::string& line) {
  Request request;
  try {
    request = parse_request(line);
  } catch (const std::exception& e) {
    return handle_error(e.what()).dump();
  }
  return handle(request).dump();
}

json::Value ServerCore::handle_error(const std::string& message) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  errors_.fetch_add(1, std::memory_order_relaxed);
  if (options_.telemetry != nullptr) {
    options_.telemetry->count("serve.requests");
    options_.telemetry->count("serve.errors");
  }
  return error_response(message);
}

json::Value ServerCore::handle(const Request& request) {
  telemetry::Telemetry* t = options_.telemetry;
  requests_.fetch_add(1, std::memory_order_relaxed);
  const auto op_index = static_cast<std::size_t>(request.op);
  op_requests_[op_index].fetch_add(1, std::memory_order_relaxed);
  if (t != nullptr) {
    t->count("serve.requests");
    t->count(std::string("serve.op.") + op_name(request.op));
  }
  try {
    switch (request.op) {
      case Op::kCreate: {
        return create_session(request);
      }
      case Op::kStep: {
        auto session = find_session(request.session_id);
        const SessionState before = session->state();
        {
          telemetry::ScopedSpan span(t, "serve.step",
                                     telemetry::ScopedSpan::kNoEvents);
          session->step(request.steps);
        }
        if (before == SessionState::kRunning &&
            session->state() != SessionState::kRunning) {
          update_active_gauge();
        }
        return session->status_json();
      }
      case Op::kQuery: {
        auto session = find_session(request.session_id);
        if (!request.save_result.empty())
          session->save_result(request.save_result);
        return session->status_json();
      }
      case Op::kCancel: {
        auto session = find_session(request.session_id);
        session->cancel();
        // A cancelled session must not be resurrected by --resume.
        if (!options_.checkpoint_dir.empty()) {
          std::error_code ec;
          std::filesystem::remove(manifest_path(request.session_id), ec);
          std::filesystem::remove(journal_path(request.session_id), ec);
        }
        update_active_gauge();
        return session->status_json();
      }
      case Op::kStats: {
        return stats_json();
      }
      case Op::kMetrics: {
        return metrics_json();
      }
      case Op::kDump: {
        return dump_json();
      }
    }
    throw ProtocolError("request:op: unknown op");
  } catch (const std::exception& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    op_errors_[op_index].fetch_add(1, std::memory_order_relaxed);
    if (t != nullptr) {
      t->count("serve.errors");
      t->count(std::string("serve.op.") + op_name(request.op) + ".errors");
    }
    return error_response(e.what());
  }
}

json::Value ServerCore::create_session(const Request& request) {
  const std::string& id = request.session_id;
  {
    std::lock_guard lock(mutex_);
    if (sessions_.count(id) != 0)
      throw ProtocolError("session " + id + ": already exists");
  }
  std::string journal;
  bool wrote_manifest = false;
  if (!options_.checkpoint_dir.empty()) {
    journal = journal_path(id);
    // Manifest before journal: a crash at any later point leaves enough
    // on disk for --resume to rebuild the session.
    atomic_write_file(manifest_path(id),
                      to_manifest(id, request.create).dump() + "\n");
    wrote_manifest = true;
  }
  try {
    // Built outside the registry lock: pool measurement is the
    // expensive part and concurrent creates of different sessions must
    // overlap. Same-id races are excluded by the caller's strand.
    const auto session =
        open_session(id, request.create, journal, /*resume=*/false);
    update_active_gauge();
    return session->status_json();
  } catch (...) {
    if (wrote_manifest) {
      std::error_code ec;
      std::filesystem::remove(manifest_path(id), ec);
      std::filesystem::remove(journal, ec);
    }
    throw;
  }
}

std::shared_ptr<ServeSession> ServerCore::open_session(
    const std::string& id, CreateParams params, const std::string& journal,
    bool resume) {
  auto session = std::make_shared<ServeSession>(
      id, std::move(params), journal, resume, trace_path(id),
      options_.trace_fsync, options_.flight_recorder,
      options_.measure_backend, options_.subprocess);
  std::lock_guard lock(mutex_);
  sessions_.emplace(id, session);
  return session;
}

std::shared_ptr<ServeSession> ServerCore::find_session(
    const std::string& id) const {
  std::lock_guard lock(mutex_);
  auto it = sessions_.find(id);
  if (it == sessions_.end())
    throw ProtocolError("request:id: unknown session \"" + id + "\"");
  return it->second;
}

std::size_t ServerCore::session_count() const {
  std::lock_guard lock(mutex_);
  return sessions_.size();
}

json::Value ServerCore::stats_json() const {
  std::size_t running = 0, done = 0, cancelled = 0, failed = 0;
  std::size_t total = 0;
  {
    std::lock_guard lock(mutex_);
    total = sessions_.size();
    for (const auto& [id, session] : sessions_) {
      switch (session->state()) {
        case SessionState::kRunning:
          ++running;
          break;
        case SessionState::kDone:
          ++done;
          break;
        case SessionState::kCancelled:
          ++cancelled;
          break;
        case SessionState::kFailed:
          ++failed;
          break;
      }
    }
  }
  json::Value stats = json::Value::object();
  stats.set("ok", json::Value::boolean(true));
  stats.set("sessions", json::Value::number(static_cast<std::uint64_t>(total)));
  stats.set("running",
            json::Value::number(static_cast<std::uint64_t>(running)));
  stats.set("done", json::Value::number(static_cast<std::uint64_t>(done)));
  stats.set("cancelled",
            json::Value::number(static_cast<std::uint64_t>(cancelled)));
  stats.set("failed", json::Value::number(static_cast<std::uint64_t>(failed)));
  // The stats request itself is already counted.
  stats.set("requests", json::Value::number(
                            requests_.load(std::memory_order_relaxed)));
  stats.set("errors",
            json::Value::number(errors_.load(std::memory_order_relaxed)));
  // Per-op breakdown: requests and errors per protocol op, in enum
  // order. Deterministic under the serve_stream quiescence barrier like
  // every other field here.
  json::Value ops = json::Value::object();
  for (std::size_t i = 0; i < kOpCount; ++i) {
    json::Value one = json::Value::object();
    one.set("requests", json::Value::number(
                            op_requests_[i].load(std::memory_order_relaxed)));
    one.set("errors", json::Value::number(
                          op_errors_[i].load(std::memory_order_relaxed)));
    ops.set(op_name(static_cast<Op>(i)), std::move(one));
  }
  stats.set("ops", std::move(ops));
  return stats;
}

json::Value ServerCore::metrics_json() const {
  json::Value metrics = json::Value::object();
  metrics.set("ok", json::Value::boolean(true));
  // The server block is stats_json minus its "ok" member.
  const json::Value stats = stats_json();
  json::Value server = json::Value::object();
  for (const auto& [key, value] : stats.members()) {
    if (key != "ok") server.set(key, value);
  }
  metrics.set("server", std::move(server));
  const json::Value sections = telemetry_sections_json(options_.telemetry);
  for (const auto& [key, value] : sections.members())
    metrics.set(key, value);
  // Per-session live progress, sorted by id (the registry map order).
  std::vector<std::shared_ptr<ServeSession>> sessions;
  {
    std::lock_guard lock(mutex_);
    sessions.reserve(sessions_.size());
    for (const auto& [id, session] : sessions_) sessions.push_back(session);
  }
  json::Value list = json::Value::array();
  for (const auto& session : sessions) list.push(session->metrics_json());
  metrics.set("sessions", std::move(list));
  return metrics;
}

json::Value ServerCore::dump_json() const {
  json::Value dump = json::Value::object();
  dump.set("ok", json::Value::boolean(true));
  json::Value recorders = json::Value::array();
  const auto append = [&recorders](const std::string& label,
                                   const telemetry::FlightRecorder* rec) {
    if (rec == nullptr) return;
    json::Value one = json::Value::object();
    one.set("label", json::Value::string(label));
    one.set("capacity", json::Value::number(
                            static_cast<std::uint64_t>(rec->capacity())));
    one.set("events", json::Value::number(
                          static_cast<std::uint64_t>(rec->size())));
    one.set("dropped", json::Value::number(rec->dropped()));
    json::Value recent = json::Value::array();
    for (const std::string& line : rec->snapshot()) {
      // Lines are our own serialized TraceEvents; a parse failure would
      // mean a torn slot slipped past the seqlock, so surface it as a
      // raw-text stub instead of dropping the response.
      try {
        recent.push(json::Value::parse(line));
      } catch (const std::exception&) {
        json::Value raw = json::Value::object();
        raw.set("raw", json::Value::string(line));
        recent.push(std::move(raw));
      }
    }
    one.set("recent", std::move(recent));
    recorders.push(std::move(one));
  };
  if (options_.telemetry != nullptr)
    append("server", options_.telemetry->flight_recorder());
  std::vector<std::shared_ptr<ServeSession>> sessions;
  {
    std::lock_guard lock(mutex_);
    sessions.reserve(sessions_.size());
    for (const auto& [id, session] : sessions_) sessions.push_back(session);
  }
  for (const auto& session : sessions)
    append("session:" + session->id(), session->flight_recorder());
  dump.set("recorders", std::move(recorders));
  return dump;
}

std::vector<std::string> ServerCore::session_ids() const {
  std::lock_guard lock(mutex_);
  std::vector<std::string> ids;
  ids.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) ids.push_back(id);
  return ids;
}

void ServerCore::flush_sinks() const {
  std::vector<std::shared_ptr<ServeSession>> sessions;
  {
    std::lock_guard lock(mutex_);
    sessions.reserve(sessions_.size());
    for (const auto& [id, session] : sessions_) sessions.push_back(session);
  }
  for (const auto& session : sessions) session->flush_trace();
}

void serve_stream(ServerCore& core, std::istream& in, std::ostream& out,
                  std::size_t threads) {
  ThreadPool pool(threads);

  // One logical strand per session id: jobs of one session run in
  // request order, never concurrently; different sessions shard freely
  // over the pool. A strand with queued jobs has exactly one drainer
  // task in flight.
  struct Strand {
    std::deque<std::function<void()>> jobs;
    bool draining = false;
  };
  std::mutex strands_mutex;
  std::map<std::string, std::shared_ptr<Strand>> strands;

  // Responses leave in request order: the reader enqueues one future
  // per request, a dedicated writer thread resolves them front to back.
  std::mutex queue_mutex;
  std::condition_variable queue_cv;
  std::deque<std::future<std::string>> responses;
  std::size_t inflight = 0;  // enqueued and not yet written
  bool closing = false;

  std::thread writer([&] {
    std::unique_lock lock(queue_mutex);
    for (;;) {
      queue_cv.wait(lock, [&] { return closing || !responses.empty(); });
      if (responses.empty()) return;
      std::future<std::string> next = std::move(responses.front());
      responses.pop_front();
      lock.unlock();
      out << next.get() << '\n';
      out.flush();
      lock.lock();
      --inflight;
      queue_cv.notify_all();
    }
  });

  auto push_response = [&](std::future<std::string> f) {
    std::lock_guard lock(queue_mutex);
    responses.push_back(std::move(f));
    ++inflight;
    queue_cv.notify_all();
  };
  auto push_ready = [&](std::string text) {
    std::promise<std::string> ready;
    ready.set_value(std::move(text));
    push_response(ready.get_future());
  };
  auto run_on_strand = [&](const std::string& id,
                           std::function<void()> job) {
    std::shared_ptr<Strand> strand;
    {
      std::lock_guard lock(strands_mutex);
      auto& slot = strands[id];
      if (slot == nullptr) slot = std::make_shared<Strand>();
      strand = slot;
      strand->jobs.push_back(std::move(job));
      if (strand->draining) return;
      strand->draining = true;
    }
    pool.submit([&strands_mutex, strand] {
      for (;;) {
        std::function<void()> next;
        {
          std::lock_guard lock(strands_mutex);
          if (strand->jobs.empty()) {
            strand->draining = false;
            return;
          }
          next = std::move(strand->jobs.front());
          strand->jobs.pop_front();
        }
        next();
      }
    });
  };

  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    Request request;
    try {
      request = parse_request(line);
    } catch (const std::exception& e) {
      push_ready(core.handle_error(e.what()).dump());
      continue;
    }
    if (request.op == Op::kStats || request.op == Op::kMetrics ||
        request.op == Op::kDump) {
      // Quiescence barrier: stats/metrics/dump answer only after every
      // earlier request finished, so their counts are deterministic
      // under any thread count.
      {
        std::unique_lock lock(queue_mutex);
        queue_cv.wait(lock, [&] { return inflight == 0; });
      }
      push_ready(core.handle(request).dump());
      continue;
    }
    auto task = std::make_shared<std::packaged_task<std::string()>>(
        [&core, request] { return core.handle(request).dump(); });
    push_response(task->get_future());
    run_on_strand(request.session_id, [task] { (*task)(); });
  }

  {
    std::lock_guard lock(queue_mutex);
    closing = true;
    queue_cv.notify_all();
  }
  writer.join();
}

#if !defined(_WIN32)

namespace {

/// Minimal read/write streambuf over a connected socket fd, so the
/// stdio and Unix-socket transports share one serve_stream loop.
class FdStreambuf final : public std::streambuf {
 public:
  explicit FdStreambuf(int fd) : fd_(fd) {
    setg(rbuf_, rbuf_, rbuf_);
    setp(wbuf_, wbuf_ + sizeof wbuf_);
  }
  ~FdStreambuf() override { flush_buffer(); }

 protected:
  int_type underflow() override {
    const ssize_t n = ::read(fd_, rbuf_, sizeof rbuf_);
    if (n <= 0) return traits_type::eof();
    setg(rbuf_, rbuf_, rbuf_ + n);
    return traits_type::to_int_type(rbuf_[0]);
  }

  int_type overflow(int_type ch) override {
    if (flush_buffer() != 0) return traits_type::eof();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }

  int sync() override { return flush_buffer(); }

 private:
  int flush_buffer() {
    const char* p = pbase();
    while (p != pptr()) {
      const ssize_t n = ::write(fd_, p, static_cast<std::size_t>(pptr() - p));
      if (n <= 0) return -1;
      p += n;
    }
    setp(wbuf_, wbuf_ + sizeof wbuf_);
    return 0;
  }

  int fd_;
  char rbuf_[4096];
  char wbuf_[4096];
};

}  // namespace

void serve_unix_socket(ServerCore& core, const std::string& socket_path,
                       std::size_t threads,
                       const std::function<bool()>& should_stop) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0)
    throw std::runtime_error("socket: " + std::string(std::strerror(errno)));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof addr.sun_path) {
    ::close(fd);
    throw std::runtime_error("socket path too long: " + socket_path);
  }
  std::strncpy(addr.sun_path, socket_path.c_str(),
               sizeof addr.sun_path - 1);
  ::unlink(socket_path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
          0 ||
      ::listen(fd, 8) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error(socket_path + ": " + why);
  }
  for (;;) {
    if (should_stop && should_stop()) break;
    const int conn = ::accept(fd, nullptr, nullptr);
    if (conn < 0) {
      // A signal (SIGTERM drain, handlers installed without SA_RESTART)
      // interrupts accept; re-check the stop predicate and keep
      // listening otherwise.
      if (errno == EINTR) continue;
      break;
    }
    FdStreambuf buffer(conn);
    std::istream conn_in(&buffer);
    std::ostream conn_out(&buffer);
    serve_stream(core, conn_in, conn_out, threads);
    ::close(conn);
    if (should_stop && should_stop()) break;
  }
  ::close(fd);
}

#else

void serve_unix_socket(ServerCore&, const std::string&, std::size_t,
                       const std::function<bool()>&) {
  throw std::runtime_error("unix sockets are not supported on this platform");
}

#endif

}  // namespace ceal::serve
