#include "trace.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

void Tracer::open_window() {
  if (!enabled_ || window_open_) return;
  window_open_ = true;
  window_start_ = Clock::now();
}

void Tracer::close_window() {
  if (!window_open_) return;
  window_s_ += seconds_since(window_start_);
  window_open_ = false;
}

Tracer::Span::Span(Tracer& tracer, const char* name) {
  if (!tracer.recording()) return;
  tracer_ = &tracer;
  index_ = tracer.records_.size();
  tracer.records_.push_back(Record{name, tracer.open_, Clock::now(), {}});
  tracer.open_ = static_cast<std::ptrdiff_t>(index_);
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  Record& rec = tracer_->records_[index_];
  rec.end = Clock::now();
  tracer_->open_ = rec.parent;
}

double Tracer::total_seconds(const std::string& name) const {
  double total = 0.0;
  for (const Record& r : records_) {
    if (name == r.name) total += seconds_between(r.start, r.end);
  }
  return total;
}

std::map<std::string, double> Tracer::self_seconds() const {
  // Children run sequentially inside their parent on one thread, so the
  // part of a parent they cover is the sum of their durations.
  std::vector<double> self(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    self[i] = seconds_between(records_[i].start, records_[i].end);
  }
  for (const Record& r : records_) {
    if (r.parent >= 0) {
      self[static_cast<std::size_t>(r.parent)] -=
          seconds_between(r.start, r.end);
    }
  }
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    by_name[records_[i].name] += self[i];
  }
  return by_name;
}

double Tracer::unattributed_fraction() const {
  if (window_s_ <= 0.0) return 0.0;
  double covered = 0.0;
  for (const Record& r : records_) {
    if (r.parent < 0) covered += seconds_between(r.start, r.end);
  }
  return std::max(0.0, 1.0 - covered / window_s_);
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    const double ts = seconds_between(origin_, r.start) * 1e6;
    const double dur = seconds_between(r.start, r.end) * 1e6;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f}\n",
                 i == 0 ? "" : ",", r.name, ts, dur);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

Latency summarize(std::vector<double> samples) {
  Latency out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  out.p50 = median(samples);
  std::size_t idx = n >= 11 ? n - 11 : n - 1;
  if (n >= 1000) {
    idx = std::min(idx, static_cast<std::size_t>(std::ceil(0.99 * n)) - 1);
  }
  idx = std::max(idx, n / 2);  // at or above the median
  out.tail = samples[idx];
  out.tail_percentile = 100.0 * static_cast<double>(idx + 1) / n;
  return out;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double process_cpu_seconds() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace perfbench
