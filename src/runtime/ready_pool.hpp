#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "hw/platform.hpp"
#include "runtime/kernel.hpp"
#include "runtime/task_graph.hpp"

/// The central ready pool of pull-style scheduling (runtime/scheduler.hpp).
namespace hetsched::rt {

/// Scheduler-visible view of one ready task instance.
struct SchedTask {
  TaskId id = 0;
  KernelId kernel = 0;
  std::int64_t items = 0;
  bool cpu_ok = true;
  bool gpu_ok = true;
  /// Device (if any) already holding a valid copy of most input bytes — the
  /// data-locality hint behind the paper's dependency-chain affinity.
  std::optional<hw::DeviceId> locality;

  bool runs_on(hw::DeviceId device) const {
    return device == hw::kCpuDevice ? cpu_ok : gpu_ok;
  }
};

/// Ready tasks that no push-style placement claimed, indexed so that every
/// pick the schedulers make costs O(devices), not O(pool).
///
/// Tasks sit in one FIFO bucket per (locality slot, runnable class): the
/// slot is "no locality" or device d, the class is cpu-only,
/// accelerator-only or both. Each entry carries a global push sequence
/// number, so "the first task in ready order that matches" is the smallest
/// sequence number among the fronts of the few buckets that match.
class ReadyPool {
 public:
  /// Which locality slots a pick draws from, relative to the picking device.
  enum class Affinity {
    kLocal,    ///< tasks whose data lives on the picking device
    kFree,     ///< tasks with no locality hint
    kForeign,  ///< tasks bound to another device's chain
    kAny,      ///< all of the above
  };

  /// Names one bucket; taking it pops that bucket's front (its oldest task).
  struct Handle {
    std::size_t bucket = 0;
  };

  explicit ReadyPool(std::size_t devices = 0) { reset(devices); }

  /// Empties the pool and sizes it for `devices` devices.
  void reset(std::size_t devices) {
    devices_ = devices;
    buckets_.assign((devices + 1) * kClasses, Bucket{});
    size_ = 0;
    next_seq_ = 0;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Adds a task behind every task already in the pool.
  void push(const SchedTask& task) {
    HS_ASSERT_MSG(!task.locality || *task.locality < devices_,
                  "pool task bound to unknown device " << *task.locality);
    buckets_[bucket_of(slot_of(task), class_of(task))].items.push_back(
        {next_seq_++, task});
    ++size_;
  }

  /// The oldest task `device` runs among the slots `affinity` selects.
  std::optional<Handle> oldest(hw::DeviceId device, Affinity affinity) const {
    std::optional<Handle> best;
    std::uint64_t best_seq = 0;
    const auto consider = [&](std::size_t slot) {
      for (const std::size_t cls : {kBoth, exclusive_class(device)}) {
        const Bucket& bucket = buckets_[bucket_of(slot, cls)];
        if (bucket.empty() || (best && bucket.front().seq >= best_seq))
          continue;
        best = Handle{bucket_of(slot, cls)};
        best_seq = bucket.front().seq;
      }
    };
    const std::size_t local = device + 1;
    switch (affinity) {
      case Affinity::kLocal:
        if (local <= devices_) consider(local);
        break;
      case Affinity::kFree:
        consider(0);
        break;
      case Affinity::kForeign:
        for (std::size_t slot = 1; slot <= devices_; ++slot)
          if (slot != local) consider(slot);
        break;
      case Affinity::kAny:
        for (std::size_t slot = 0; slot <= devices_; ++slot) consider(slot);
        break;
    }
    return best;
  }

  /// True iff `handle` names a non-empty bucket of this pool.
  bool holds(Handle handle) const {
    return handle.bucket < buckets_.size() && !buckets_[handle.bucket].empty();
  }

  /// The task `handle` names; it must come from oldest() with no change to
  /// the pool since.
  const SchedTask& peek(Handle handle) const {
    HS_ASSERT(holds(handle));
    return buckets_[handle.bucket].front().task;
  }

  /// Removes and returns the task `handle` names.
  SchedTask take(Handle handle) {
    HS_ASSERT(holds(handle));
    Bucket& bucket = buckets_[handle.bucket];
    SchedTask task = bucket.front().task;
    bucket.pop_front();
    --size_;
    return task;
  }

  /// `device` failed: the tasks bound to its chain lose the hint and join
  /// the free tasks, keeping ready order.
  void unbind(hw::DeviceId device) {
    if (device >= devices_) return;
    for (std::size_t cls = 0; cls < kClasses; ++cls) {
      Bucket& from = buckets_[bucket_of(device + 1, cls)];
      if (from.empty()) continue;
      Bucket& to = buckets_[bucket_of(0, cls)];
      for (std::size_t i = from.head; i < from.items.size(); ++i)
        from.items[i].task.locality.reset();
      std::vector<Entry> merged;
      merged.reserve(from.size() + to.size());
      std::merge(to.items.begin() + static_cast<std::ptrdiff_t>(to.head),
                 to.items.end(),
                 from.items.begin() + static_cast<std::ptrdiff_t>(from.head),
                 from.items.end(), std::back_inserter(merged), by_seq);
      to.items = std::move(merged);
      to.head = 0;
      from = Bucket{};
    }
  }

  /// Removes every task for which `doomed(task)` holds and returns them in
  /// reverse ready order (newest first).
  template <typename Pred>
  std::vector<SchedTask> take_if(Pred doomed) {
    std::vector<Entry> removed;
    for (Bucket& bucket : buckets_) {
      const auto live =
          bucket.items.begin() + static_cast<std::ptrdiff_t>(bucket.head);
      const auto split = std::stable_partition(
          live, bucket.items.end(),
          [&doomed](const Entry& entry) { return !doomed(entry.task); });
      removed.insert(removed.end(), std::make_move_iterator(split),
                     std::make_move_iterator(bucket.items.end()));
      bucket.items.erase(split, bucket.items.end());
      if (bucket.empty()) bucket = Bucket{};
    }
    std::sort(removed.begin(), removed.end(),
              [](const Entry& a, const Entry& b) { return by_seq(b, a); });
    std::vector<SchedTask> tasks;
    tasks.reserve(removed.size());
    for (Entry& entry : removed) tasks.push_back(std::move(entry.task));
    size_ -= tasks.size();
    return tasks;
  }

 private:
  struct Entry {
    std::uint64_t seq;
    SchedTask task;
  };
  static bool by_seq(const Entry& a, const Entry& b) { return a.seq < b.seq; }

  /// A FIFO over a vector: a pop advances `head`, and the consumed prefix
  /// is dropped once it is the larger half (amortized O(1) per pop).
  struct Bucket {
    std::vector<Entry> items;
    std::size_t head = 0;

    bool empty() const { return head == items.size(); }
    std::size_t size() const { return items.size() - head; }
    const Entry& front() const { return items[head]; }
    void pop_front() {
      if (++head == items.size()) {
        items.clear();
        head = 0;
      } else if (head >= 32 && 2 * head >= items.size()) {
        items.erase(items.begin(),
                    items.begin() + static_cast<std::ptrdiff_t>(head));
        head = 0;
      }
    }
  };

  /// Runnable classes. A task that runs nowhere never enters the pool.
  static constexpr std::size_t kCpuOnly = 0;
  static constexpr std::size_t kAcceleratorOnly = 1;
  static constexpr std::size_t kBoth = 2;
  static constexpr std::size_t kClasses = 3;

  static std::size_t class_of(const SchedTask& task) {
    HS_ASSERT_MSG(task.cpu_ok || task.gpu_ok,
                  "pool task " << task.id << " runs on no device");
    return !task.gpu_ok ? kCpuOnly : !task.cpu_ok ? kAcceleratorOnly : kBoth;
  }
  /// The class besides kBoth whose tasks `device` runs.
  static std::size_t exclusive_class(hw::DeviceId device) {
    return device == hw::kCpuDevice ? kCpuOnly : kAcceleratorOnly;
  }
  /// Slot 0 holds tasks without locality, slot d + 1 those bound to d.
  static std::size_t slot_of(const SchedTask& task) {
    return task.locality ? *task.locality + 1 : 0;
  }
  static std::size_t bucket_of(std::size_t slot, std::size_t cls) {
    return slot * kClasses + cls;
  }

  std::vector<Bucket> buckets_;
  std::size_t devices_ = 0;
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace hetsched::rt
