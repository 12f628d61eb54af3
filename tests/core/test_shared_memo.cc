// SharedMemo's contract, once for every memo built on it (history
// component fits and their pool predictions, GEIST pool graphs): equal
// keys share one value, only a miss copies the key, the least recently
// used key goes at capacity, concurrent misses on one key make one
// build, and a build that throws hands its exception to every waiter and
// leaves no entry.
#include "core/shared_memo.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <latch>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

namespace ceal {
namespace {

using Memo = SharedMemo<int, int, 2>;

/// Memo::get(key) whose build returns key * 10.
std::shared_ptr<const int> get(Memo& memo, int key) {
  return memo.get(key, [](int k) { return k * 10; });
}

TEST(SharedMemo, EqualKeysShareOneValue) {
  Memo memo;
  const auto first = get(memo, 1);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(*first, 10);
  EXPECT_EQ(get(memo, 1), first);
  EXPECT_EQ(memo.builds_started(), 1u);
  EXPECT_NE(get(memo, 2), first);
  EXPECT_EQ(memo.builds_started(), 2u);
}

TEST(SharedMemo, LeastRecentlyUsedKeyIsEvictedAtCapacity) {
  Memo memo;
  const auto one = get(memo, 1);
  const auto two = get(memo, 2);
  EXPECT_EQ(get(memo, 1), one) << "a hit renews key 1";
  get(memo, 3);  // evicts key 2, the least recently used
  EXPECT_EQ(memo.builds_started(), 3u);
  EXPECT_EQ(get(memo, 1), one);
  EXPECT_EQ(memo.builds_started(), 3u);
  const auto rebuilt = get(memo, 2);
  EXPECT_EQ(memo.builds_started(), 4u) << "key 2 was evicted";
  EXPECT_NE(rebuilt, two);
  EXPECT_EQ(*two, 20) << "an evicted value lives on with its holders";
}

/// A key that counts the copies made of it.
struct CountedKey {
  explicit CountedKey(int v) : value(v) {}
  CountedKey(const CountedKey& other) : value(other.value) { ++copies; }
  bool operator==(const CountedKey& other) const {
    return value == other.value;
  }

  int value;
  static inline std::size_t copies = 0;
};

TEST(SharedMemo, OnlyAMissCopiesTheKey) {
  SharedMemo<CountedKey, int, 2> memo;
  const CountedKey key(3);
  const auto build = [](const CountedKey& k) { return k.value * 10; };
  CountedKey::copies = 0;
  const auto first = memo.get(key, build);
  EXPECT_EQ(CountedKey::copies, 1u) << "a miss holds one copy";
  EXPECT_EQ(memo.get(key, build), first);
  EXPECT_EQ(CountedKey::copies, 1u) << "a hit copies nothing";
}

constexpr std::size_t kWorkers = 4;

/// Calls memo.get(7, build) on kWorkers threads released together;
/// `build` runs only once every thread has arrived, and then sleeps, so
/// every thread calls get() while the first build runs. Returns how many
/// threads threw; `values` gets each thread's value.
template <typename Build>
std::size_t get_at_once(Memo& memo, const Build& build,
                        std::vector<std::shared_ptr<const int>>& values) {
  values.assign(kWorkers, nullptr);
  std::atomic<std::size_t> arrived{0};
  std::atomic<std::size_t> threw{0};
  const auto slow_build = [&](int key) {
    while (arrived.load() < kWorkers) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return build(key);
  };
  std::latch go(static_cast<std::ptrdiff_t>(kWorkers));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&, t] {
      go.arrive_and_wait();
      ++arrived;
      try {
        values[t] = memo.get(7, slow_build);
      } catch (const std::runtime_error&) {
        ++threw;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  return threw.load();
}

TEST(SharedMemo, ConcurrentMissesOnOneKeyMakeOneBuild) {
  Memo memo;
  std::vector<std::shared_ptr<const int>> values;
  EXPECT_EQ(get_at_once(memo, [](int k) { return k * 10; }, values), 0u);
  EXPECT_EQ(memo.builds_started(), 1u);
  for (const auto& value : values) {
    ASSERT_NE(value, nullptr);
    EXPECT_EQ(value, values.front());
  }
  EXPECT_EQ(*values.front(), 70);
}

TEST(SharedMemo, AThrowingBuildReleasesItsWaitersAndLeavesNoEntry) {
  Memo memo;
  std::vector<std::shared_ptr<const int>> values;
  const auto fail = [](int) -> int { throw std::runtime_error("build"); };
  EXPECT_EQ(get_at_once(memo, fail, values), kWorkers)
      << "every waiter gets the build's exception";
  EXPECT_EQ(memo.builds_started(), 1u);
  EXPECT_EQ(*get(memo, 7), 70);
  EXPECT_EQ(memo.builds_started(), 2u)
      << "the failed key left no entry, so the next call builds again";
}

}  // namespace
}  // namespace ceal
