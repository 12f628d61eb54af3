#include "core/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <stdexcept>

#include "core/error.h"
#include "core/telemetry.h"

namespace ceal {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  stats_.resize(threads);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::vector<ThreadPool::ThreadStats> ThreadPool::thread_stats() const {
  std::lock_guard lock(stats_mutex_);
  return stats_;
}

std::uint64_t ThreadPool::tasks_submitted() const {
  std::lock_guard lock(mutex_);
  return submitted_;
}

std::size_t ThreadPool::max_queue_depth() const {
  std::lock_guard lock(mutex_);
  return max_queue_depth_;
}

void ThreadPool::note_submit(std::size_t queue_depth) {
  telemetry::Telemetry* tel = telemetry_;
  if (tel == nullptr) return;
  tel->count("pool.tasks");
  tel->gauge("pool.queue_depth", static_cast<double>(queue_depth));
  tel->gauge_max("pool.queue_depth.max", static_cast<double>(queue_depth));
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    const auto start = std::chrono::steady_clock::now();
    {
      telemetry::ScopedSpan span(telemetry_, "pool.task",
                                 telemetry::ScopedSpan::kNoEvents);
      task();
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    {
      std::lock_guard lock(stats_mutex_);
      ++stats_[worker_index].tasks;
      stats_[worker_index].busy_s += elapsed;
    }
  }
}

void ThreadPool::enqueue(std::function<void()> task) {
  std::size_t depth = 0;
  {
    std::lock_guard lock(mutex_);
    if (stopping_) throw std::runtime_error("ThreadPool is shutting down");
    queue_.push(std::move(task));
    depth = queue_.size();
    ++submitted_;
    if (depth > max_queue_depth_) max_queue_depth_ = depth;
  }
  note_submit(depth);
  cv_.notify_one();
}

namespace {

// Shared state of one parallel_for call. Helpers hold it by shared_ptr,
// so a helper that dequeues after the call returned still finds a live
// counter (already exhausted) and never touches the caller's frame: fn
// is dereferenced only after a successful claim, and the caller does not
// return while a claimed chunk is unfinished.
struct ChunkLoop {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t chunk = 0;             // items per chunk
  std::size_t chunks = 0;            // chunk count
  std::atomic<std::size_t> next{0};  // next unclaimed chunk

  std::mutex mutex;
  std::condition_variable all_done;
  std::size_t done = 0;            // finished chunks; guarded by mutex
  std::exception_ptr first_error;  // guarded by mutex

  // Claims and runs chunks until none is left, then reports how many it
  // finished. Returns without calling fn when nothing was left to claim.
  void drain() {
    std::size_t finished = 0;
    std::exception_ptr error;
    for (std::size_t c = next.fetch_add(1); c < chunks;
         c = next.fetch_add(1)) {
      const std::size_t lo = begin + c * chunk;
      const std::size_t hi = std::min(end, lo + chunk);
      try {
        for (std::size_t i = lo; i < hi; ++i) (*fn)(i);
      } catch (...) {
        if (error == nullptr) error = std::current_exception();
      }
      ++finished;
    }
    if (finished == 0) return;
    std::lock_guard lock(mutex);
    if (first_error == nullptr) first_error = error;
    done += finished;
    if (done == chunks) all_done.notify_all();
  }
};

}  // namespace

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  CEAL_EXPECT(begin <= end);
  const std::size_t n = end - begin;
  if (n == 0) return;
  auto loop = std::make_shared<ChunkLoop>();
  loop->fn = &fn;
  loop->begin = begin;
  loop->end = end;
  const std::size_t max_chunks = kChunksPerLane * (thread_count() + 1);
  loop->chunk = (n + max_chunks - 1) / max_chunks;
  loop->chunks = (n + loop->chunk - 1) / loop->chunk;

  // One helper per worker that could find a chunk; the caller takes the
  // rest, so a one-worker pool still overlaps caller and worker.
  const std::size_t helpers = std::min(thread_count(), loop->chunks - 1);
  for (std::size_t h = 0; h < helpers; ++h) {
    enqueue([loop] { loop->drain(); });
  }
  loop->drain();

  // Every chunk is claimed now; wait only for those still running on
  // other threads, never for a helper that has not started.
  std::unique_lock lock(loop->mutex);
  loop->all_done.wait(lock, [&] { return loop->done == loop->chunks; });
  if (loop->first_error != nullptr) {
    std::rethrow_exception(loop->first_error);
  }
}

}  // namespace ceal
