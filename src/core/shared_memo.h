// A process-wide memo of immutable values built from exact keys: the one
// way sessions share inputs that are pure functions of a few exact
// inputs (history component models, their predictions over a pool,
// GEIST's pool graph).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <deque>
#include <exception>
#include <future>
#include <memory>
#include <mutex>

namespace ceal {

/// The values of the last `Capacity` keys, most recently used first,
/// under one mutex. A key enters when its build starts, so a caller that
/// misses on a key another caller is still building waits for that
/// build instead of repeating it. A build that throws passes its
/// exception to every waiter and leaves no entry. Builds run outside
/// the lock, so callers on other keys do not wait. Callers ask with a
/// probe, which may borrow what the key owns: held keys are compared
/// with it in full (`key == probe`), one entry at a time, and only a
/// miss copies it into a held `Key(probe)`.
template <typename Key, typename T, std::size_t Capacity>
class SharedMemo {
  static_assert(Capacity >= 1);

 public:
  using Value = std::shared_ptr<const T>;

  /// The value of an earlier build of a key equal to `probe`, or of
  /// build(key) run here on the held `Key(probe)` (`build` returns a T),
  /// which later callers with an equal probe wait for.
  template <typename Probe, typename Build>
  Value get(const Probe& probe, const Build& build) {
    std::promise<Value> built;
    std::shared_future<Value> value;
    std::shared_ptr<const Key> held;
    {
      const std::lock_guard lock(mutex_);
      const auto hit = std::ranges::find_if(
          entries_, [&](const Entry& e) { return *e.first == probe; });
      if (hit != entries_.end()) {
        std::rotate(entries_.begin(), hit, hit + 1);
        value = entries_.front().second;
      } else {
        held = std::make_shared<const Key>(probe);
        entries_.emplace_front(held, built.get_future().share());
        if (entries_.size() > Capacity) entries_.pop_back();
      }
    }
    if (value.valid()) return value.get();

    ++builds_started_;
    try {
      Value result = std::make_shared<const T>(build(*held));
      built.set_value(result);
      return result;
    } catch (...) {
      {
        const std::lock_guard lock(mutex_);
        std::erase_if(entries_,
                      [&](const Entry& e) { return e.first == held; });
      }
      built.set_exception(std::current_exception());
      throw;
    }
  }

  /// Builds get() has started (misses), for tests.
  std::size_t builds_started() const { return builds_started_.load(); }

 private:
  using Entry =
      std::pair<std::shared_ptr<const Key>, std::shared_future<Value>>;
  std::mutex mutex_;
  std::deque<Entry> entries_;
  std::atomic<std::size_t> builds_started_{0};
};

}  // namespace ceal
