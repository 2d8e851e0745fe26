#include "runtime/ready_pool.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/schedulers/breadth_first.hpp"
#include "runtime/schedulers/work_stealing.hpp"

/// Equivalence test of the indexed ready pool against the linear scans of
/// the plain FIFO vector it replaced: on random pools over 2-4 devices, the
/// picks of the breadth-first, work-stealing and default schedulers, the
/// executor's probe pick, and the order a device failure unbinds and
/// abandons tasks in must all match.
namespace hetsched::rt {
namespace {

// -- The linear scans over a FIFO vector, as the schedulers made them. -----

std::optional<std::size_t> linear_default(const std::vector<SchedTask>& pool,
                                          hw::DeviceId device) {
  for (std::size_t i = 0; i < pool.size(); ++i)
    if (pool[i].runs_on(device)) return i;
  return std::nullopt;
}

std::optional<std::size_t> linear_breadth_first(
    const std::vector<SchedTask>& pool, hw::DeviceId device) {
  std::optional<std::size_t> no_affinity;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (!pool[i].runs_on(device)) continue;
    if (pool[i].locality == device) return i;
    if (!pool[i].locality && !no_affinity) no_affinity = i;
  }
  return no_affinity;
}

std::optional<std::size_t> linear_work_stealing(
    const std::vector<SchedTask>& pool, hw::DeviceId device,
    std::size_t& steals) {
  std::optional<std::size_t> no_affinity;
  std::optional<std::size_t> foreign;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (!pool[i].runs_on(device)) continue;
    if (pool[i].locality == device) return i;
    if (!pool[i].locality) {
      if (!no_affinity) no_affinity = i;
    } else if (!foreign) {
      foreign = i;
    }
  }
  if (no_affinity) return no_affinity;
  if (foreign) ++steals;
  return foreign;
}

/// The default pull policy (Scheduler::pick), as FifoScheduler uses it.
class DefaultPick final : public Scheduler {
 public:
  std::string name() const override { return "default"; }
};

bool runnable_somewhere(const SchedTask& task,
                        const std::vector<bool>& failed) {
  for (hw::DeviceId d = 0; d < failed.size(); ++d)
    if (!failed[d] && task.runs_on(d)) return true;
  return false;
}

/// Holds one ReadyPool and the FIFO vector it must behave like, and checks
/// every pick, unbind and abandon against the other.
class PoolPair {
 public:
  explicit PoolPair(std::size_t devices)
      : pool_(devices), failed_(devices, false) {}

  void push(const SchedTask& task) {
    pool_.push(task);
    linear_.push_back(task);
  }

  /// Picks with scheduler `which` (0 default, 1 breadth-first, 2 work
  /// stealing, 3 the executor's probe pick) and takes the task from both.
  void pick(int which, hw::DeviceId device) {
    std::optional<ReadyPool::Handle> handle;
    std::optional<std::size_t> index;
    switch (which) {
      case 0:
        handle = default_.pick(device, pool_, 0);
        index = linear_default(linear_, device);
        break;
      case 1:
        handle = breadth_first_.pick(device, pool_, 0);
        index = linear_breadth_first(linear_, device);
        break;
      case 2:
        handle = work_stealing_.pick(device, pool_, 0);
        index = linear_work_stealing(linear_, device, steals_);
        ASSERT_EQ(work_stealing_.steal_count(), steals_);
        break;
      default:
        handle = pool_.oldest(device, ReadyPool::Affinity::kAny);
        index = linear_default(linear_, device);
        break;
    }
    ASSERT_EQ(handle.has_value(), index.has_value())
        << "scheduler " << which << " device " << device;
    if (!index) return;
    ASSERT_TRUE(pool_.holds(*handle));
    ASSERT_EQ(pool_.peek(*handle).id, linear_[*index].id)
        << "scheduler " << which << " device " << device;
    const SchedTask taken = pool_.take(*handle);
    EXPECT_EQ(taken.locality, linear_[*index].locality);
    linear_.erase(linear_.begin() + static_cast<std::ptrdiff_t>(*index));
    ASSERT_EQ(pool_.size(), linear_.size());
  }

  /// A device failure as the executor handles it: tasks bound to `device`
  /// lose their hint, then the ones no survivor runs are abandoned, newest
  /// first.
  void fail(hw::DeviceId device) {
    failed_[device] = true;
    pool_.unbind(device);
    const std::vector<SchedTask> abandoned =
        pool_.take_if([this](const SchedTask& task) {
          return !runnable_somewhere(task, failed_);
        });

    for (SchedTask& t : linear_)
      if (t.locality == device) t.locality.reset();
    std::vector<TaskId> expected;
    for (std::size_t i = linear_.size(); i-- > 0;) {
      if (runnable_somewhere(linear_[i], failed_)) continue;
      expected.push_back(linear_[i].id);
      linear_.erase(linear_.begin() + static_cast<std::ptrdiff_t>(i));
    }
    std::vector<TaskId> actual;
    for (const SchedTask& t : abandoned) actual.push_back(t.id);
    ASSERT_EQ(actual, expected);
    ASSERT_EQ(pool_.size(), linear_.size());
  }

  /// Drains both pools and compares everything left, in ready order.
  void drain() {
    const std::vector<SchedTask> rest =
        pool_.take_if([](const SchedTask&) { return true; });
    ASSERT_EQ(rest.size(), linear_.size());
    for (std::size_t i = 0; i < rest.size(); ++i) {
      const SchedTask& expected = linear_[linear_.size() - 1 - i];
      EXPECT_EQ(rest[i].id, expected.id);
      EXPECT_EQ(rest[i].locality, expected.locality);
    }
    EXPECT_TRUE(pool_.empty());
  }

  const std::vector<bool>& failed() const { return failed_; }

 private:
  ReadyPool pool_;
  std::vector<SchedTask> linear_;
  std::vector<bool> failed_;
  DefaultPick default_;
  BreadthFirstScheduler breadth_first_;
  WorkStealingScheduler work_stealing_;
  std::size_t steals_ = 0;
};

TEST(ReadyPoolEquivalence, PicksMatchLinearScans) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    const auto devices = static_cast<std::size_t>(rng.uniform_int(2, 4));
    PoolPair pair(devices);
    TaskId next_id = 0;
    for (int op = 0; op < 400; ++op) {
      const double kind = rng.uniform();
      const auto device =
          static_cast<hw::DeviceId>(rng.uniform_int(0, devices - 1));
      if (kind < 0.5) {
        SchedTask task;
        task.id = next_id++;
        task.items = 1;
        const auto cls = rng.uniform_int(0, 2);
        task.cpu_ok = cls != 1;
        task.gpu_ok = cls != 0;
        if (rng.uniform() < 0.6)
          task.locality =
              static_cast<hw::DeviceId>(rng.uniform_int(0, devices - 1));
        if (!runnable_somewhere(task, pair.failed())) continue;
        pair.push(task);
      } else if (kind < 0.995) {
        ASSERT_NO_FATAL_FAILURE(
            pair.pick(static_cast<int>(rng.uniform_int(0, 3)), device))
            << "seed " << seed << " op " << op;
      } else if (!pair.failed()[device]) {
        ASSERT_NO_FATAL_FAILURE(pair.fail(device))
            << "seed " << seed << " op " << op;
      }
    }
    ASSERT_NO_FATAL_FAILURE(pair.drain()) << "seed " << seed;
  }
}

TEST(ReadyPoolEquivalence, FailureUnbindsInReadyOrderAndAbandonsNewestFirst) {
  // Every accelerator dies: accelerator-only tasks are abandoned newest
  // first, and the survivors bound to the dead chains pick in ready order.
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    PoolPair pair(3);
    for (TaskId id = 0; id < 64; ++id) {
      SchedTask task;
      task.id = id;
      const auto cls = rng.uniform_int(0, 2);
      task.cpu_ok = cls != 1;
      task.gpu_ok = cls != 0;
      if (rng.uniform() < 0.7)
        task.locality = static_cast<hw::DeviceId>(rng.uniform_int(0, 2));
      pair.push(task);
    }
    ASSERT_NO_FATAL_FAILURE(pair.fail(1));
    ASSERT_NO_FATAL_FAILURE(pair.pick(1, hw::kCpuDevice));
    ASSERT_NO_FATAL_FAILURE(pair.fail(2));
    for (int i = 0; i < 8; ++i)
      ASSERT_NO_FATAL_FAILURE(pair.pick(i % 4, hw::kCpuDevice));
    ASSERT_NO_FATAL_FAILURE(pair.drain());
  }
}

}  // namespace
}  // namespace hetsched::rt
