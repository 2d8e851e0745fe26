#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "hw/platform.hpp"
#include "runtime/kernel.hpp"
#include "runtime/ready_pool.hpp"
#include "runtime/task_graph.hpp"

/// Scheduler interface for dynamic partitioning.
///
/// The executor supports two placement styles, mirroring the OmpSs runtime:
///
///  - *push*: when a task becomes ready, `on_ready` may immediately bind it
///    to a device queue (the performance-aware scheduler does this, using
///    its earliest-finish-time estimate);
///  - *pull*: `on_ready` declines (returns nullopt), the task enters the
///    central ready pool, and whenever a device lane goes idle the executor
///    calls `pick` to let the scheduler choose work for that device (the
///    breadth-first scheduler works this way).
///
/// Statically partitioned programs pin every task, so the scheduler is never
/// consulted for placement.
namespace hetsched::obs {
struct RunObservability;
}  // namespace hetsched::obs

namespace hetsched::rt {

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual std::string name() const = 0;

  /// Charged on the critical path once per placement decision.
  virtual SimTime decision_cost() const { return 0; }

  /// Called once before execution starts.
  virtual void begin_run(const hw::PlatformSpec& platform,
                         const std::vector<KernelDef>& kernels) {
    (void)platform;
    (void)kernels;
  }

  /// Push-style placement. Return the device to enqueue the task on, or
  /// nullopt to leave it in the central ready pool.
  virtual std::optional<hw::DeviceId> on_ready(const SchedTask& task,
                                               SimTime now) {
    (void)task;
    (void)now;
    return std::nullopt;
  }

  /// Pull-style placement: a lane of `device` is idle; return the pool
  /// entry it should run (from `pool.oldest`), or nullopt to leave the lane
  /// idle. The default takes the oldest task the device runs.
  virtual std::optional<ReadyPool::Handle> pick(hw::DeviceId device,
                                                const ReadyPool& pool,
                                                SimTime now) {
    (void)now;
    return pool.oldest(device, ReadyPool::Affinity::kAny);
  }

  /// A taskwait flushed `duration` worth of link time for data this task
  /// produced on `device`. Performance-aware schedulers fold this into
  /// their cost picture: the synchronization bill of placing that instance
  /// on an accelerator, which its completion-time occupancy cannot see.
  virtual void on_flush(const SchedTask& task, hw::DeviceId device,
                        SimTime duration, SimTime now) {
    (void)task;
    (void)device;
    (void)duration;
    (void)now;
  }

  /// `device` permanently failed at `now` (fault injection). The executor
  /// has already drained the device's queue; adaptive schedulers should
  /// stop placing work there. Pull schedulers whose pick never offers a
  /// task to a device it wasn't asked for need no action.
  virtual void on_device_failed(hw::DeviceId device, SimTime now) {
    (void)device;
    (void)now;
  }

  /// A completion on `device` diverged from the model prediction by more
  /// than the armed fault plan's threshold; the executor is about to pull
  /// the device's dynamically placed queue back for re-partitioning.
  /// `busy_until` is when the device's lanes actually free up — adaptive
  /// schedulers should fold it into their backlog picture so the re-offered
  /// work lands somewhere faster.
  virtual void on_divergence(hw::DeviceId device, SimTime busy_until,
                             SimTime now) {
    (void)device;
    (void)busy_until;
    (void)now;
  }

  /// Completion feedback. `compute_time` is the kernel execution time alone
  /// (launch + compute); `occupancy_time` is the full dispatch-to-completion
  /// latency the worker observed, including waits for host<->device
  /// transfers — the quantity the OmpSs performance-aware scheduler actually
  /// measures per task instance (it cannot see inside the driver).
  virtual void on_complete(const SchedTask& task, hw::DeviceId device,
                           SimTime compute_time, SimTime occupancy_time,
                           SimTime now) {
    (void)task;
    (void)device;
    (void)compute_time;
    (void)occupancy_time;
    (void)now;
  }

  /// Probe-and-forgive support. After each completion (while a fault plan
  /// is armed) the executor asks whether any benched device deserves a
  /// probe chunk; returning a device makes the executor reroute one queued
  /// compatible chunk there, then call `on_probe_dispatched`. Schedulers
  /// without a bench list never probe.
  virtual std::optional<hw::DeviceId> probe_request(SimTime now) {
    (void)now;
    return std::nullopt;
  }
  virtual void on_probe_dispatched(hw::DeviceId device, SimTime now) {
    (void)device;
    (void)now;
  }

  /// Points the scheduler at the active run's observability sinks (null
  /// between runs or when recording is off). Set by the executor before
  /// `begin_run` and cleared after the run.
  void set_observability(obs::RunObservability* obs) { obs_ = obs; }

 protected:
  obs::RunObservability* obs_ = nullptr;
};

}  // namespace hetsched::rt
