#include "serve_load.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <functional>
#include <istream>
#include <limits>
#include <mutex>
#include <ostream>
#include <streambuf>
#include <thread>

#include "core/json.h"
#include "core/rng.h"
#include "trace.h"

namespace perfbench {

namespace {

/// Input side: reads block until a line is pushed; EOF once closed and
/// drained.
class LineFeed final : public std::streambuf {
 public:
  void push(std::string line) {
    line.push_back('\n');
    {
      std::lock_guard lock(mutex_);
      lines_.push_back(std::move(line));
    }
    cv_.notify_one();
  }

  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return closed_ || !lines_.empty(); });
    if (lines_.empty()) return traits_type::eof();
    current_ = std::move(lines_.front());
    lines_.pop_front();
    setg(current_.data(), current_.data(), current_.data() + current_.size());
    return traits_type::to_int_type(*gptr());
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::string> lines_;
  bool closed_ = false;
  std::string current_;  // the get area; touched only by the reader
};

/// Output side: hands every complete line to `on_line` with the time its
/// newline was written.
class LineSink final : public std::streambuf {
 public:
  using Callback = std::function<void(const std::string&, Clock::time_point)>;
  explicit LineSink(Callback on_line) : on_line_(std::move(on_line)) {}

 protected:
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      put(traits_type::to_char_type(ch));
    }
    return traits_type::not_eof(ch);
  }

  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) put(s[i]);
    return n;
  }

 private:
  void put(char c) {
    if (c != '\n') {
      line_.push_back(c);
      return;
    }
    on_line_(line_, Clock::now());
    line_.clear();
  }

  Callback on_line_;
  std::string line_;
};

/// {ok, state} of one reply; a reply that does not parse is not ok.
struct Reply {
  bool ok = false;
  bool running = false;
};

Reply parse_reply(const std::string& line) {
  Reply reply;
  try {
    const ceal::json::Value v = ceal::json::Value::parse(line);
    reply.ok = v.at("ok").as_bool();
    const ceal::json::Value* state = v.find("state");
    reply.running = state != nullptr && state->as_string() == "running";
  } catch (const std::exception&) {
    reply.ok = false;
  }
  return reply;
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return seconds_between(a, b) * 1e3;
}

}  // namespace

std::string step_line(const std::string& id) {
  return "{\"op\":\"session.step\",\"id\":\"" + id + "\"}";
}

ClosedLoopResult run_closed_loop(ceal::serve::ServerCore& core,
                                 const std::vector<std::string>& ids,
                                 std::size_t threads) {
  const std::size_t n = ids.size();
  ClosedLoopResult out;
  out.session_s.assign(n, 0.0);
  out.final_status.assign(n, std::string());
  out.requests.assign(n, 0);
  std::vector<Clock::time_point> first_sent(n);

  // Replies leave serve_stream in request order, so the reply to the
  // front of `in_flight` is always the next line the sink sees.
  std::mutex mutex;
  std::deque<std::size_t> in_flight;
  std::size_t open_sessions = n;
  LineFeed feed;
  const auto send = [&](std::size_t i) {  // caller holds `mutex`
    in_flight.push_back(i);
    ++out.requests[i];
    feed.push(step_line(ids[i]));
  };
  LineSink sink([&](const std::string& line, Clock::time_point at) {
    std::lock_guard lock(mutex);
    const std::size_t i = in_flight.front();
    in_flight.pop_front();
    ++out.steps;
    const Reply reply = parse_reply(line);
    if (!reply.ok) ++out.failed;
    if (reply.ok && reply.running) {
      send(i);
      return;
    }
    out.session_s[i] = seconds_between(first_sent[i], at);
    out.final_status[i] = line;
    if (--open_sessions == 0) feed.close();
  });

  std::istream in(&feed);
  std::ostream os(&sink);
  const Clock::time_point start = Clock::now();
  {
    std::lock_guard lock(mutex);
    for (std::size_t i = 0; i < n; ++i) {
      first_sent[i] = Clock::now();
      send(i);
    }
    if (n == 0) feed.close();
  }
  ceal::serve::serve_stream(core, in, os, threads);
  out.wall_s = seconds_since(start);
  return out;
}

OpenLoopResult run_open_loop(ceal::serve::ServerCore& core,
                             const std::vector<std::string>& ids,
                             const std::vector<std::size_t>& requests,
                             double rate_per_s,
                             std::uint64_t schedule_seed,
                             std::size_t threads) {
  const std::size_t n = ids.size();
  // Round-robin script: round r steps every session that needs more
  // than r requests.
  std::vector<std::size_t> script;
  const std::size_t rounds =
      requests.empty() ? 0 : *std::max_element(requests.begin(), requests.end());
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      if (requests[i] > round) script.push_back(i);
    }
  }
  const std::size_t total = script.size();
  OpenLoopResult out;
  out.requests = total;
  out.latency_ms.assign(total, std::numeric_limits<double>::infinity());
  out.generator_late_ms.assign(total, 0.0);
  out.final_status.assign(n, std::string());

  // The schedule is fixed before the first send: independent users whose
  // arrivals do not depend on the server's replies.
  std::vector<Clock::time_point> due(total);
  ceal::Rng rng(schedule_seed);
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(2);
  double offset_s = 0.0;
  for (std::size_t k = 0; k < total; ++k) {
    offset_s += -std::log(1.0 - rng.uniform01()) / rate_per_s;
    due[k] = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(offset_s));
  }

  std::size_t next_reply = 0;  // touched only by serve_stream's writer
  LineSink sink([&](const std::string& line, Clock::time_point at) {
    const std::size_t k = next_reply++;
    if (k >= total) return;
    if (parse_reply(line).ok) {
      out.latency_ms[k] = ms_between(due[k], at);
    } else {
      ++out.failed;
    }
    out.final_status[script[k]] = line;
  });
  LineFeed feed;
  std::thread generator([&] {
    for (std::size_t k = 0; k < total; ++k) {
      std::this_thread::sleep_until(due[k]);
      feed.push(step_line(ids[script[k]]));
      out.generator_late_ms[k] = ms_between(due[k], Clock::now());
    }
    feed.close();
  });

  std::istream in(&feed);
  std::ostream os(&sink);
  try {
    ceal::serve::serve_stream(core, in, os, threads);
  } catch (...) {
    generator.join();
    throw;
  }
  generator.join();
  return out;
}

}  // namespace perfbench
