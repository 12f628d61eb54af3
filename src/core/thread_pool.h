// Fixed-size thread pool with a blocking work queue plus a chunked,
// nest-safe parallel_for helper.
//
// The mini-app kernels (src/apps) use this directly; everything else
// shares one process-wide instance through core/parallel.h, including
// the evaluation harness's replications and the batch loops they call
// from inside. With a single hardware thread everything degrades
// gracefully to serial execution without code changes.
//
// Observability: attach a (concurrency-safe) telemetry::Telemetry with
// set_telemetry to record task counts, queue-depth gauges, and busy-time
// spans; thread_stats() exposes per-worker task/busy tallies either way.
// Queue-depth gauges reflect scheduling, not the tuning seed — attach a
// dedicated Telemetry instance to a pool rather than the one tracing a
// seeded tuning session (docs/OBSERVABILITY.md).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ceal {

namespace telemetry {
class Telemetry;
}

class ThreadPool {
 public:
  /// Per-worker execution tally (thread_stats()).
  struct ThreadStats {
    std::uint64_t tasks = 0;
    double busy_s = 0.0;
  };

  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency()
  /// (at least 1).
  explicit ThreadPool(std::size_t threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Joins all workers after draining the queue.
  ~ThreadPool();

  std::size_t thread_count() const { return workers_.size(); }

  /// Attaches (or detaches, with nullptr) a telemetry registry. Not
  /// owned; must outlive the pool or be detached first. Counters/gauges
  /// recorded: "pool.tasks" (submissions), "pool.queue_depth" (depth
  /// after the latest submit), "pool.queue_depth.max" (high-water), and
  /// the "pool.task" span (per-task busy wall-clock). Call while no
  /// tasks are in flight.
  void set_telemetry(telemetry::Telemetry* telemetry) {
    telemetry_ = telemetry;
  }
  telemetry::Telemetry* telemetry() const { return telemetry_; }

  /// Per-worker task counts and busy seconds, indexed like the workers.
  std::vector<ThreadStats> thread_stats() const;

  /// Tasks ever submitted / largest queue depth observed at submit time.
  std::uint64_t tasks_submitted() const;
  std::size_t max_queue_depth() const;

  /// Enqueue a task; the returned future observes its completion and
  /// propagates exceptions.
  template <typename F>
  std::future<std::invoke_result_t<F>> submit(F&& fn) {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    enqueue([task] { (*task)(); });
    return fut;
  }

  /// Runs fn(i) for i in [begin, end), blocking until all iterations
  /// finish. The range is cut into at most kChunksPerLane contiguous
  /// chunks per lane (workers + the caller), so a range of at most
  /// kChunksPerLane * (thread_count() + 1) items runs one item per
  /// chunk. The caller and up to one queued helper task per worker claim
  /// chunks from a shared counter until none is left.
  ///
  /// Nest-safe: fn may itself call parallel_for on this pool, from any
  /// thread. The caller never waits for a queued helper to start — it
  /// works through the unclaimed chunks itself and then waits only for
  /// chunks other threads have already claimed; a helper that starts
  /// late finds nothing to claim and returns without touching fn. The
  /// caller also never runs other tasks from the queue, so an inner loop
  /// cannot get stuck behind an unrelated outer one.
  ///
  /// On failure every chunk still runs to completion (or to its own
  /// failure) before the first exception is rethrown — fn is borrowed by
  /// the helpers, so no chunk may outlive the call.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  /// Upper bound on parallel_for chunks per lane: few enough that one
  /// claim costs nothing next to a chunk, enough that uneven items (whole
  /// tuning replications) still balance across lanes.
  static constexpr std::size_t kChunksPerLane = 8;

 private:
  void enqueue(std::function<void()> task);
  void worker_loop(std::size_t worker_index);
  /// Telemetry hook for a submission (one null branch when detached).
  void note_submit(std::size_t queue_depth);

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::uint64_t submitted_ = 0;     // guarded by mutex_
  std::size_t max_queue_depth_ = 0;  // guarded by mutex_

  telemetry::Telemetry* telemetry_ = nullptr;
  mutable std::mutex stats_mutex_;
  std::vector<ThreadStats> stats_;  // one slot per worker
};

}  // namespace ceal
