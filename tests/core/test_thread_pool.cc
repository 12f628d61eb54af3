#include "core/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/telemetry.h"

namespace ceal {
namespace {

TEST(ThreadPool, DefaultHasAtLeastOneWorker) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  ThreadPool pool(2);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, ManySubmittedTasksAllRun) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(5, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, ParallelForNonzeroBegin) {
  ThreadPool pool(2);
  std::atomic<long> sum{0};
  pool.parallel_for(10, 20,
                    [&](std::size_t i) { sum += static_cast<long>(i); });
  EXPECT_EQ(sum.load(), 145);  // 10 + 11 + ... + 19
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [](std::size_t i) {
                                   if (i == 57) {
                                     throw std::runtime_error("bad index");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, SingleWorkerPoolStillCompletes) {
  ThreadPool pool(1);
  std::vector<int> out(100, 0);
  pool.parallel_for(0, out.size(), [&](std::size_t i) {
    out[i] = static_cast<int>(i) * 2;
  });
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i) * 2);
  }
}

// A task's future completes inside the task body; the worker records
// per-thread stats and the pool.task span just after. Poll briefly for
// that bookkeeping instead of racing it.
std::uint64_t tasks_ran(const ThreadPool& pool) {
  std::uint64_t ran = 0;
  for (const auto& stats : pool.thread_stats()) ran += stats.tasks;
  return ran;
}

void wait_for(const std::function<bool()>& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(ThreadPool, InstrumentationCountsEveryTask) {
  constexpr std::uint64_t kTasks = 64;
  telemetry::Telemetry tel;  // dedicated instance (thread_pool.h header)
  ThreadPool pool(3);
  pool.set_telemetry(&tel);
  EXPECT_EQ(pool.telemetry(), &tel);

  std::vector<std::future<void>> futures;
  futures.reserve(kTasks);
  for (std::uint64_t i = 0; i < kTasks; ++i) {
    futures.push_back(pool.submit([] {}));
  }
  for (auto& f : futures) f.get();
  wait_for([&] {
    return tasks_ran(pool) == kTasks &&
           tel.histogram_stats("timing.pool.task_s").count == kTasks;
  });

  EXPECT_EQ(pool.tasks_submitted(), kTasks);
  EXPECT_EQ(tel.counter("pool.tasks"), kTasks);
  EXPECT_EQ(tel.histogram_stats("timing.pool.task_s").count, kTasks);
  // The queue-depth high-water gauge saw at least the deepest backlog,
  // which is at least 1 (the first submit observes its own entry).
  EXPECT_GE(tel.gauges().at("pool.queue_depth.max"), 1.0);
  EXPECT_GE(pool.max_queue_depth(), 1u);

  // Per-thread busy stats cover exactly the submitted tasks.
  std::uint64_t ran = 0;
  for (const auto& stats : pool.thread_stats()) {
    ran += stats.tasks;
    EXPECT_GE(stats.busy_s, 0.0);
  }
  EXPECT_EQ(ran, kTasks);
}

TEST(ThreadPool, UninstrumentedPoolStillTracksItsOwnStats) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.telemetry(), nullptr);
  auto fut = pool.submit([] { return 1; });
  EXPECT_EQ(fut.get(), 1);
  EXPECT_EQ(pool.tasks_submitted(), 1u);
  wait_for([&] { return tasks_ran(pool) == 1; });
  EXPECT_EQ(tasks_ran(pool), 1u);
}

TEST(ThreadPool, NestedSubmitFromParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  // parallel_for runs chunks on workers plus the caller; tasks submitted
  // from inside must still drain because the caller participates.
  pool.parallel_for(0, 4, [&](std::size_t) { ++counter; });
  auto fut = pool.submit([&counter] { ++counter; });
  fut.get();
  EXPECT_EQ(counter.load(), 5);
}

// Aborts the test binary if it is still alive after `limit`, so a
// deadlocked pool fails ctest instead of hanging it.
class Watchdog {
 public:
  explicit Watchdog(std::chrono::seconds limit)
      : thread_([this, limit] {
          std::unique_lock lock(mutex_);
          if (!cv_.wait_for(lock, limit, [this] { return done_; })) {
            std::fprintf(stderr, "watchdog: parallel_for deadlocked\n");
            std::abort();
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;  // guarded by mutex_
  std::thread thread_;
};

// More outer items than lanes, each running an inner loop on the same
// pool (a replication calling batch prediction): with both workers busy
// in outer items, the inner loops must still finish — on their calling
// threads — instead of waiting for queued tasks no worker will run.
TEST(NestedParallel, InnerLoopsOnBusyTwoWorkerPoolFinish) {
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 100;
  ThreadPool pool(2);
  std::vector<std::uint64_t> sums(kOuter, 0);
  {
    Watchdog watchdog(std::chrono::seconds(60));
    pool.parallel_for(0, kOuter, [&](std::size_t o) {
      std::vector<std::uint64_t> parts(kInner, 0);
      pool.parallel_for(0, kInner, [&](std::size_t i) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        parts[i] = o * 1000 + i;
      });
      sums[o] = std::accumulate(parts.begin(), parts.end(), std::uint64_t{0});
    });
  }
  for (std::size_t o = 0; o < kOuter; ++o) {
    EXPECT_EQ(sums[o], o * 1000 * kInner + kInner * (kInner - 1) / 2)
        << "outer item " << o;
  }
}

// A throwing item fails only its own chunk: every other claimed chunk
// still runs to completion before the exception reaches the caller, and
// nothing runs after parallel_for returns. The range fits one item per
// chunk (thread_pool.h), so every other item runs.
TEST(NestedParallel, ThrowingItemStillRunsEveryClaimedChunk) {
  ThreadPool pool(2);
  const std::size_t n = ThreadPool::kChunksPerLane * (pool.thread_count() + 1);
  std::atomic<std::size_t> started{0};
  std::atomic<std::size_t> finished{0};
  const auto item = [&](std::size_t i) {
    if (i == 0) throw std::runtime_error("item 0");
    ++started;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ++finished;
  };
  {
    Watchdog watchdog(std::chrono::seconds(60));
    EXPECT_THROW(pool.parallel_for(0, n, item), std::runtime_error);
  }
  EXPECT_EQ(started.load(), finished.load());
  EXPECT_EQ(finished.load(), n - 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(started.load(), n - 1);
}

}  // namespace
}  // namespace ceal
