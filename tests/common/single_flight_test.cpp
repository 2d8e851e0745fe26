#include "common/single_flight.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

/// Tests for the single-flight table behind the sweep's in-run memo and the
/// serve daemon's scenario cache, beyond what tests/sweep/memo_test.cpp and
/// tests/serve/shard_cache_test.cpp check through those two users.
/// Registered under the `serve` label so the thread-sanitizer preset runs
/// them.
namespace hetsched {
namespace {

using Table = SingleFlight<std::string>;

/// Blocks callers until open() is called.
class Gate {
 public:
  void open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
};

/// Spins until `table` holds `count` entries (a flight is registered before
/// its compute starts, so this waits for the owner to claim the key).
void wait_for_entries(const Table& table, std::size_t count) {
  while (table.entries() < count)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

TEST(SingleFlight, JoinerWaitsOnTheLiveFlightAndSeesTheLeaderTag) {
  Table table;
  Gate release;
  std::thread owner([&] {
    const Table::Result result = table.get_or_compute(
        "k",
        [&release] {
          release.wait();
          return std::string("slow");
        },
        "leader-trace");
    EXPECT_TRUE(result.owner);
    EXPECT_TRUE(result.leader.empty()) << "the owner gets no leader tag";
  });
  wait_for_entries(table, 1);

  Table::Result joined;
  std::atomic<bool> started{false};
  std::thread joiner([&] {
    started.store(true);
    joined = table.get_or_compute(
        "k", []() -> std::string { throw std::logic_error("not the owner"); },
        "joiner-trace");
  });
  while (!started.load()) std::this_thread::yield();
  // Let the joiner reach the blocking get before the owner finishes.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  release.open();
  owner.join();
  joiner.join();
  EXPECT_FALSE(joined.owner);
  EXPECT_TRUE(joined.joined);
  EXPECT_EQ(joined.leader, "leader-trace");
  EXPECT_EQ(*joined.value, "slow");
}

/// The owner's exception. The waiters catch it by type and never read it:
/// its reference count lives in the uninstrumented C++ runtime, so the
/// thread sanitizer would report the last holder's free against another
/// thread's read although the count orders them.
struct FlakyCompute {};

TEST(SingleFlight, ThrowReachesEveryJoinedWaiter) {
  Table table;
  Gate release;
  std::thread owner([&] {
    EXPECT_THROW(table.get_or_compute("k",
                                      [&release]() -> std::string {
                                        release.wait();
                                        throw FlakyCompute{};
                                      }),
                 FlakyCompute);
  });
  wait_for_entries(table, 1);

  constexpr int kWaiters = 4;
  std::atomic<int> started{0};
  std::atomic<int> waiter_throws{0};
  std::atomic<int> waiter_values{0};
  std::vector<std::thread> waiters;
  for (int w = 0; w < kWaiters; ++w) {
    waiters.emplace_back([&] {
      started.fetch_add(1);
      try {
        const Table::Result result =
            table.get_or_compute("k", [] { return std::string("raced"); });
        EXPECT_EQ(*result.value, "raced");
        waiter_values.fetch_add(1);
      } catch (const FlakyCompute&) {
        waiter_throws.fetch_add(1);
      }
    });
  }
  while (started.load() < kWaiters) std::this_thread::yield();
  // Give the waiters time to join the owner's flight before it fails.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  release.open();
  owner.join();
  for (std::thread& waiter : waiters) waiter.join();

  // Waiters that joined the failed flight rethrow its exception; one that
  // arrived after the slot was freed starts (or joins) a fresh flight.
  EXPECT_GE(waiter_throws.load(), 1);
  EXPECT_EQ(waiter_throws.load() + waiter_values.load(), kWaiters);
}

TEST(SingleFlight, ComputeMayLookUpOtherKeysInTheSameTable) {
  // The sweep computes a faulted scenario's baseline twin from inside the
  // faulted scenario's own computation; with one shard both keys share a
  // mutex, so this deadlocks unless compute runs outside the lock.
  Table table(1);
  const Table::Result outer = table.get_or_compute("outer", [&table] {
    const Table::Result inner =
        table.get_or_compute("inner", [] { return std::string("twin"); });
    EXPECT_TRUE(inner.owner);
    return "outer+" + *inner.value;
  });
  EXPECT_EQ(*outer.value, "outer+twin");
  EXPECT_FALSE(table.get_or_compute("inner", [] { return std::string(); })
                   .owner);
  EXPECT_EQ(table.entries(), 2u);
}

}  // namespace
}  // namespace hetsched
