#include "runtime/executor.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <set>
#include <string_view>

#include "common/json.hpp"
#include "common/logging.hpp"
#include "common/range_map.hpp"
#include "faults/injector.hpp"
#include "obs/phase_profiler.hpp"
#include "runtime/task_graph.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"

namespace hetsched::rt {

Executor::Executor(hw::PlatformSpec platform, RuntimeCosts costs,
                   RuntimeOptions options)
    : platform_(std::move(platform)),
      costs_(costs),
      options_(options) {
  platform_.validate();
}

mem::BufferId Executor::register_buffer(std::string name,
                                        std::int64_t size_bytes) {
  HS_REQUIRE(size_bytes > 0, "buffer '" << name << "' size " << size_bytes);
  buffers_.push_back(BufferInfo{std::move(name), size_bytes});
  return buffers_.size() - 1;
}

KernelId Executor::register_kernel(KernelDef def) {
  def.validate();
  kernels_.push_back(std::move(def));
  return kernels_.size() - 1;
}

namespace {

/// All mutable state of one simulated execution.
class Run {
 public:
  Run(const hw::PlatformSpec& platform, const RuntimeCosts& costs,
      const RuntimeOptions& options, const hw::RooflineCostModel& cost_model,
      const std::vector<KernelDef>& kernels,
      const std::vector<std::pair<std::string, std::int64_t>>& buffers,
      const Program& program, Scheduler& scheduler,
      const std::optional<faults::FaultPlan>& fault_plan,
      ExploreStrategy* explore, mem::Arena& arena)
      : platform_(platform),
        costs_(costs),
        options_(options),
        cost_model_(cost_model),
        kernels_(kernels),
        scheduler_(scheduler),
        explore_(explore),
        arena_(arena),
        devices_(platform.all_devices()),
        coherence_(platform.device_count()),
        link_(platform.link.name),
        graph_(kernels, program) {
    // All flat bookkeeping arrays below come out of the executor's arena;
    // it is rewound here, so repeated runs reuse the same resident blocks.
    arena_.reset();
    for (const auto& [name, size] : buffers) {
      coherence_.register_buffer(name, size);
    }
    num_buffers_ = coherence_.buffer_count();
    lane_begin_ = arena_.make_array<std::uint32_t>(devices_.size() + 1);
    for (std::size_t d = 0; d < devices_.size(); ++d) {
      lane_begin_[d] = static_cast<std::uint32_t>(lanes_.size());
      for (int lane = 0; lane < devices_[d].lanes; ++lane) {
        lanes_.emplace_back(devices_[d].cls == hw::DeviceClass::kCpu
                                ? "cpu.t" + std::to_string(lane)
                                : "dev" + std::to_string(d));
      }
    }
    lane_begin_[devices_.size()] = static_cast<std::uint32_t>(lanes_.size());
    ready_.resize(devices_.size());
    pool_.reset(devices_.size());
    remaining_deps_ = arena_.make_array<std::size_t>(graph_.size());
    for (TaskId id = 0; id < graph_.size(); ++id)
      remaining_deps_[id] = graph_.node(id).predecessor_count;
    sched_info_ = arena_.make_array<SchedTask>(graph_.size());
    affinity_ =
        arena_.make_array<std::optional<hw::DeviceId>>(graph_.size());
    completed_ = arena_.make_array<std::uint8_t>(graph_.size());
    region_ready_.resize(devices_.size() * num_buffers_);
    last_writer_.resize(num_buffers_);
    last_touch_ =
        arena_.make_array<SimTime>(devices_.size() * num_buffers_);

    report_.devices.resize(devices_.size());
    for (std::size_t d = 0; d < devices_.size(); ++d) {
      report_.devices[d].name = devices_[d].name;
      report_.devices[d].cls = devices_[d].cls;
      report_.devices[d].lanes = devices_[d].lanes;
    }
    report_.peak_resident_bytes.assign(devices_.size(), 0);

    if (fault_plan) {
      injector_.emplace(*fault_plan, devices_.size());
      report_.faults.active = true;
      report_.faults.plan_name = fault_plan->name;
    }
    failed_ = arena_.make_array<std::uint8_t>(devices_.size());
    retry_count_ = arena_.make_array<int>(graph_.size());
    dispatch_epoch_ = arena_.make_array<std::uint64_t>(graph_.size());
    body_ran_ = arena_.make_array<std::uint8_t>(graph_.size());
    running_ = arena_.make_array<InFlight>(lanes_.size());
    running_valid_ = arena_.make_array<std::uint8_t>(lanes_.size());

    // Per-span history on the lanes and the link only feeds traces and
    // tests; untraced runs (the sweep hot path) skip it so every reserve()
    // stops copying a label string into a history vector.
    for (sim::Resource& lane : lanes_)
      lane.set_record_history(options_.record_trace);
    link_.set_record_history(options_.record_trace);

    if (explore_ != nullptr) {
      // Equal-timestamp event ordering becomes the strategy's first class
      // of decision sites; queue pops and fault-detection latency are the
      // other two (see pump() and execute()).
      engine_.set_tie_breaker(
          [this](std::size_t n) { return explore_->pick(n); });
      report_.schedule.recorded = true;
      report_.schedule.tasks = graph_.size();
      for (TaskId id = 0; id < graph_.size(); ++id)
        for (TaskId succ : graph_.node(id).successors)
          report_.schedule.edges.emplace_back(id, succ);
    }

    if (options_.record_observability) {
      report_.obs = std::make_shared<obs::RunObservability>();
      report_.obs->enable();
      obs_ = report_.obs.get();
      queue_key_.reserve(devices_.size());
      compute_hist_key_.reserve(devices_.size());
      dispatch_key_.reserve(devices_.size());
      for (const hw::DeviceSpec& device : devices_) {
        queue_key_.push_back(
            obs::metric_key("queue_depth", {{"device", device.name}}));
        compute_hist_key_.push_back(
            obs::metric_key("chunk_compute_ms", {{"device", device.name}}));
        dispatch_key_.push_back(
            obs::metric_key("chunks_dispatched", {{"device", device.name}}));
      }
    }
  }

  ExecutionReport execute() {
    // Steady state keeps roughly one event in flight per announced task plus
    // one per busy lane; sizing the queue for the whole graph up front means
    // the hot scheduling loop never reallocates.
    engine_.reserve_events(graph_.size() + lanes_.size() + 16);
    if (options_.record_trace) {
      // Compute + dispatch-overhead spans per task plus transfer spans.
      report_.trace.reserve(graph_.size() * 3);
    }
    scheduler_.set_observability(obs_);
    scheduler_.begin_run(platform_, kernels_);
    if (injector_) {
      for (hw::DeviceId d = 0; d < devices_.size(); ++d) {
        // Fault-injection timing is explorable: the plan fixes when the
        // device dies, the strategy picks how long the runtime takes to
        // notice (0..2 dispatch overheads of detection latency), so fault
        // handling races against the completions scheduled around it.
        SimTime latency = 0;
        if (explore_ != nullptr && injector_->failure_time(d))
          latency = static_cast<SimTime>(explore_->pick(3)) *
                    costs_.dispatch_overhead;
        if (const auto at = injector_->observed_failure_time(d, latency)) {
          engine_.schedule_at(*at, [this, d] {
            on_device_failure(d, engine_.now());
          });
        }
      }
    }
    // Task creation happens on the host thread as the program runs; task i
    // becomes announceable no earlier than its creation time.
    for (TaskId id : graph_.initial_ready()) {
      engine_.schedule_at(creation_time(id), [this, id] {
        announce(id, engine_.now());
      });
    }
    report_.overhead_time +=
        static_cast<SimTime>(graph_.size()) * costs_.task_creation;
    {
      const obs::ScopedPhase phase(obs::kPhaseEventLoop);
      engine_.run();
    }

    std::size_t unfinished = 0;
    for (std::size_t id = 0; id < graph_.size(); ++id) {
      if (completed_[id]) continue;
      // Without abandoned chunks every task must complete; with them, the
      // abandoned chunks and their dependents legitimately never finish —
      // the run reports its degradation honestly instead of hanging.
      HS_ASSERT_MSG(report_.faults.abandoned_tasks > 0,
                    "deadlock: task " << id << " never completed");
      ++unfinished;
    }
    report_.faults.unfinished_tasks = static_cast<std::int64_t>(unfinished);
    report_.faults.run_completed = unfinished == 0;
    coherence_.check_no_byte_orphaned();
    // A DNF run can end on an abandon, after the last completion; the
    // reported window must cover that final fault-handling action or the
    // trace holds recovery events outside the run.
    report_.makespan = std::max(last_completion_, last_fault_action_);
    report_.sim_events = engine_.fired_events();
    if (explore_ != nullptr)
      report_.schedule.decisions = explore_->decisions();
    if (injector_) record_injected_faults();
    if (obs_) {
      obs_->metrics.gauge_set("makespan_ms", to_millis(report_.makespan));
      obs_->metrics.gauge_set("overhead_ms", to_millis(report_.overhead_time));
      // Fold each device's queue-depth curve into a time-weighted
      // distribution: "how deep was the backlog, for how long".
      for (hw::DeviceId d = 0; d < devices_.size(); ++d) {
        const obs::CounterTrack* track =
            obs_->metrics.find_track(queue_key_[d]);
        if (track == nullptr) continue;
        obs_->metrics.histogram_bounds(
            obs::metric_key("queue_depth_time_ms",
                            {{"device", devices_[d].name}}),
            {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0});
        obs::observe_time_weighted(
            obs_->metrics,
            obs::metric_key("queue_depth_time_ms",
                            {{"device", devices_[d].name}}),
            track->series(), report_.makespan);
      }
    }
    scheduler_.set_observability(nullptr);
    return std::move(report_);
  }

 private:
  SimTime creation_time(TaskId id) const {
    return static_cast<SimTime>(id + 1) * costs_.task_creation;
  }

  mem::SpaceId space_of(hw::DeviceId device) const { return device; }

  // Observability helpers: one branch each when recording is off.
  void obs_count(std::string_view key, std::int64_t delta = 1) {
    if (obs_) obs_->metrics.counter_add(key, delta);
  }
  void obs_track(std::string_view key, SimTime time, double delta) {
    if (obs_) obs_->metrics.track_add(key, time, delta);
  }
  void obs_span(TaskId id, obs::SpanPhase phase, SimTime start, SimTime end,
                std::string detail = {}) {
    if (obs_)
      obs_->spans.record(id, retry_count_[id], phase, start, end,
                         std::move(detail));
  }
  std::string_view queue_key_d(hw::DeviceId d) const {
    // Empty (and unused by the guarded sinks) when recording is off.
    return queue_key_.empty() ? std::string_view{}
                              : std::string_view(queue_key_[d]);
  }

  /// A task just became unblocked at `now`; enters scheduling once both its
  /// dependencies and its host-side creation have happened.
  void make_ready(TaskId id, SimTime now) {
    const SimTime at = std::max(now, creation_time(id));
    if (at > now) {
      engine_.schedule_at(at, [this, id] { announce(id, engine_.now()); });
    } else {
      announce(id, now);
    }
  }

  void announce(TaskId id, SimTime now) {
    const TaskNode& node = graph_.node(id);
    if (node.is_barrier) {
      run_barrier(id, now);
      return;
    }
    if (node.is_host_op) {
      run_host_op(id, now);
      return;
    }
    const KernelDef& kernel = kernels_[node.kernel];
    SchedTask st;
    st.id = id;
    st.kernel = node.kernel;
    st.items = node.items();
    st.cpu_ok = kernel.has_cpu_impl;
    st.gpu_ok = kernel.has_gpu_impl;
    st.locality = affinity_[id];
    // A locality hint pointing at a failed device would strand the task in
    // the pool (the breadth-first scheduler never steals bound work).
    if (st.locality && failed_[*st.locality]) st.locality.reset();
    sched_info_[id] = st;
    if (obs_) {
      obs_span(id, obs::SpanPhase::kAnnounce, now, now, kernel.name);
      obs_count("chunks_announced");
    }

    if (node.pinned_device) {
      const hw::DeviceId d = *node.pinned_device;
      HS_REQUIRE(d < devices_.size(),
                 "task pinned to unknown device " << d);
      HS_REQUIRE(st.runs_on(d), "kernel '" << kernel.name
                                           << "' pinned to device " << d
                                           << " without an implementation");
      if (failed_[d]) {
        // Static partitioning has nowhere else to put the chunk.
        abandon(id, now, "pinned to failed " + devices_[d].name);
        return;
      }
      ready_[d].push_back(id);
      if (obs_) {
        obs_span(id, obs::SpanPhase::kSchedule, now, now,
                 devices_[d].name + " (pinned)");
        obs_track(queue_key_d(d), now, 1);
      }
    } else if (!runnable_somewhere(st)) {
      abandon(id, now, "no surviving device runs it");
      return;
    } else if (auto chosen = scheduler_.on_ready(st, now)) {
      HS_REQUIRE(*chosen < devices_.size(),
                 "scheduler chose unknown device " << *chosen);
      HS_REQUIRE(st.runs_on(*chosen),
                 "scheduler placed kernel '"
                     << kernel.name << "' on device " << *chosen
                     << " without an implementation");
      HS_REQUIRE(!failed_[*chosen],
                 "scheduler placed work on failed device " << *chosen);
      ready_[d_checked(*chosen)].push_back(id);
      if (obs_) {
        obs_span(id, obs::SpanPhase::kSchedule, now, now,
                 devices_[*chosen].name);
        obs_track(queue_key_d(*chosen), now, 1);
      }
    } else {
      pool_.push(st);
      obs_track("pool_depth", now, 1);
    }
    pump(now);
  }

  bool runnable_somewhere(const SchedTask& task) const {
    for (hw::DeviceId d = 0; d < devices_.size(); ++d)
      if (!failed_[d] && task.runs_on(d)) return true;
    return false;
  }

  void abandon(TaskId id, SimTime now, const std::string& why) {
    ++report_.faults.abandoned_tasks;
    last_fault_action_ = std::max(last_fault_action_, now);
    if (explore_ != nullptr) report_.schedule.abandons.emplace_back(id, now);
    obs_span(id, obs::SpanPhase::kAbandon, now, now, why);
    obs_count("chunks_abandoned");
    if (options_.record_trace)
      report_.trace.record("faults",
                           "abandon task " + std::to_string(id) + ": " + why,
                           sim::TraceKind::kRecovery, now, now);
  }

  hw::DeviceId d_checked(hw::DeviceId d) const { return d; }

  /// Hands work to every idle lane that can get some. Accelerators are
  /// served before the CPU: with a breadth-first scheduler and a fresh pool
  /// this reproduces the OmpSs behaviour the paper observes (the GPU claims
  /// one instance, CPU threads claim one each).
  void pump(SimTime now) {
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t i = 0; i < devices_.size(); ++i) {
        // Order: devices 1..N (accelerators), then 0 (CPU).
        const hw::DeviceId d =
            (i + 1 < devices_.size()) ? (i + 1) : hw::kCpuDevice;
        if (failed_[d]) continue;
        std::deque<TaskId>& queue = ready_[d];
        const std::size_t lane_count = lane_begin_[d + 1] - lane_begin_[d];
        for (std::size_t lane = 0; lane < lane_count; ++lane) {
          if (lanes_[lane_begin_[d] + lane].available_at() > now) continue;
          std::optional<TaskId> task;
          bool via_scheduler = false;
          bool from_pool = false;
          if (!queue.empty()) {
            // Ready-queue tie-breaking: the canonical executor always pops
            // the front; under exploration any queued chunk may go first.
            std::size_t pick = 0;
            if (explore_ != nullptr && queue.size() > 1)
              pick = explore_->pick(queue.size());
            task = queue[pick];
            queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(pick));
            obs_track(queue_key_d(d), now, -1);
            via_scheduler = !graph_.node(*task).pinned_device.has_value();
          } else if (!pool_.empty()) {
            if (auto handle = scheduler_.pick(d, pool_, now)) {
              HS_REQUIRE(pool_.holds(*handle),
                         "scheduler picked an empty pool entry");
              HS_REQUIRE(pool_.peek(*handle).runs_on(d),
                         "scheduler picked a task the device cannot run");
              task = pool_.take(*handle).id;
              obs_track("pool_depth", now, -1);
              via_scheduler = true;
              from_pool = true;
            }
          }
          if (!task) break;  // nothing runnable for this device
          dispatch(*task, d, lane, via_scheduler, from_pool, now);
          progress = true;
        }
      }
    }
  }

  void dispatch(TaskId id, hw::DeviceId d, std::size_t lane_index,
                bool via_scheduler, bool from_pool, SimTime now) {
    const TaskNode& node = graph_.node(id);
    const KernelDef& kernel = kernels_[node.kernel];
    const hw::DeviceSpec& device = devices_[d];
    sim::Resource& lane = lanes_[lane_begin_[d] + lane_index];

    SimTime overhead = costs_.dispatch_overhead;
    if (via_scheduler) {
      overhead += scheduler_.decision_cost();
      ++report_.scheduling_decisions;
    }
    report_.overhead_time += overhead;
    // Pool tasks are placed right here (pull-style); queued tasks already
    // got their schedule span at announce time.
    if (obs_ && from_pool)
      obs_span(id, obs::SpanPhase::kSchedule, now, now + overhead,
               devices_[d].name);

    // Capacity: make room for this task's working set before staging it.
    SimTime evict_done = now + overhead;
    if (options_.enforce_memory_capacity && d != hw::kCpuDevice)
      evict_done = ensure_capacity(node, d, evict_done);

    // Acquire inputs in the device's memory space; missing ranges ride the
    // link, FIFO-serialized with every other transfer in flight. Ranges
    // already valid may still have their copy in flight (asynchronous
    // write-back) — wait for their recorded readiness too.
    SimTime data_ready = evict_done;
    for (const mem::RegionAccess& access : node.accesses) {
      if (access.region.empty()) continue;
      if (options_.enforce_memory_capacity && d != hw::kCpuDevice)
        last_touch_[sb_index(space_of(d), access.region.buffer)] = now;
      if (!access.reads()) continue;
      coherence_.plan_acquire(access.region, space_of(d), acquire_scratch_);
      for (const mem::TransferOp& op : acquire_scratch_) {
        data_ready = std::max(data_ready, issue_transfer(op, evict_done));
      }
      data_ready =
          std::max(data_ready, region_ready_time(access.region, space_of(d)));
    }

    if (obs_ && data_ready > evict_done)
      obs_span(id, obs::SpanPhase::kH2D, evict_done, data_ready,
               "stage inputs on " + devices_[d].name);

    const SimTime nominal = cost_model_.instance_time(kernel.traits, device,
                                                      node.begin, node.end);
    const SimTime compute =
        injector_ ? injector_->stretch_compute(d, data_ready, nominal)
                  : nominal;
    const SimTime end = data_ready + compute;
    if (obs_) {
      obs_span(id, obs::SpanPhase::kCompute, end - compute, end, lane.name());
      obs_->metrics.counter_add(dispatch_key_[d], 1);
      obs_->metrics.observe(compute_hist_key_[d], to_millis(compute));
    }
    // The reservation label only surfaces via lane history (traces); skip
    // the three-way string concatenation on the untraced hot path.
    lane.reserve(now, end - now,
                 options_.record_trace
                     ? kernel.name + " [" + std::to_string(node.begin) + "," +
                           std::to_string(node.end) + ")"
                     : std::string());

    // At most once per task: a chunk displaced by a device failure is
    // re-dispatched elsewhere, and non-idempotent kernel bodies must not
    // observe the work twice.
    if (options_.functional_execution && kernel.body && !body_ran_[id]) {
      body_ran_[id] = true;
      kernel.body(node.begin, node.end);
    }

    for (const mem::RegionAccess& access : node.accesses) {
      if (access.writes() && !access.region.empty()) {
        coherence_.note_write(access.region, space_of(d));
        // Locally produced data is ready when the producing task completes;
        // clear any stale in-flight arrival times for the range.
        region_ready_[sb_index(space_of(d), access.region.buffer)].assign(
            access.region.range, end);
        last_writer_[access.region.buffer].assign(access.region.range, id);
      }
    }
    note_residency();

    DeviceReport& dr = report_.devices[d];
    dr.compute_time += compute;
    ++dr.instances;
    dr.items_per_kernel[node.kernel] += node.items();

    if (options_.record_trace) {
      report_.trace.record(lane.name(), kernel.name,
                           sim::TraceKind::kCompute, end - compute, end);
      if (overhead > 0)
        report_.trace.record(lane.name(), "dispatch",
                             sim::TraceKind::kOverhead, now, now + overhead);
    }

    const std::size_t flat_lane = lane_begin_[d] + lane_index;
    running_[flat_lane] = InFlight{id, compute, node.kernel, node.items()};
    running_valid_[flat_lane] = 1;
    const SimTime occupancy = end - now;
    const std::uint64_t epoch = dispatch_epoch_[id];
    engine_.schedule_at(end, [this, id, d, lane_index, compute, nominal,
                              occupancy, epoch] {
      complete(id, d, lane_index, compute, nominal, occupancy, epoch,
               engine_.now());
    });
  }

  /// Reserves the link (and, when given, a device lane that the transfer
  /// also occupies) for one coherence transfer and applies it. Returns the
  /// transfer's completion time.
  SimTime issue_transfer(const mem::TransferOp& op, SimTime arrival,
                         sim::Resource* co_lane = nullptr) {
    const SimTime nominal = cost_model_.transfer_time(
        platform_.link, static_cast<double>(op.size_bytes()));
    const bool to_host = op.dst == mem::kHostSpace;
    // Labels feed the trace (via the returned span) and lane history; an
    // untraced run never reads them, so skip the concatenation.
    std::string label;
    if (options_.record_trace) {
      label = std::string(to_host ? "D2H " : "H2D ") +
              coherence_.buffer(op.region.buffer).name + "[" +
              std::to_string(op.region.range.begin) + "," +
              std::to_string(op.region.range.end) + ")";
    }
    SimTime start = link_.earliest_start(arrival);
    if (co_lane != nullptr)
      start = std::max(start, co_lane->earliest_start(arrival));
    const SimTime duration =
        injector_ ? injector_->stretch_link(start, nominal) : nominal;
    if (co_lane != nullptr) co_lane->reserve(start, duration, label);
    const sim::BusySpan span = link_.reserve(start, duration, label);
    obs_track("inflight_transfers", start, 1);
    obs_track("inflight_transfers", start + duration, -1);
    obs_count(to_host ? "transfers_d2h" : "transfers_h2d");
    coherence_.apply(op);
    region_ready_[sb_index(op.dst, op.region.buffer)].assign(op.region.range,
                                                             span.end);
    if (to_host) {
      ++report_.transfers.d2h_count;
      report_.transfers.d2h_bytes += op.size_bytes();
      report_.transfers.d2h_time += duration;
    } else {
      ++report_.transfers.h2d_count;
      report_.transfers.h2d_bytes += op.size_bytes();
      report_.transfers.h2d_time += duration;
    }
    if (options_.record_trace) {
      report_.trace.record(link_.name(), span.label,
                           to_host ? sim::TraceKind::kTransferD2H
                                   : sim::TraceKind::kTransferH2D,
                           span.start, span.end);
    }
    return span.end;
  }

  /// Host-side sequential code: acquires its inputs into host memory (may
  /// pull device-written data home), runs the functional body, and records
  /// its writes — invalidating device copies.
  void run_host_op(TaskId id, SimTime now) {
    const TaskNode& node = graph_.node(id);
    SimTime done = now;
    for (const mem::RegionAccess& access : node.accesses) {
      if (!access.reads() || access.region.empty()) continue;
      coherence_.plan_acquire(access.region, mem::kHostSpace,
                              acquire_scratch_);
      for (const mem::TransferOp& op : acquire_scratch_) {
        done = std::max(done, issue_transfer(op, now));
      }
      done = std::max(done,
                      region_ready_time(access.region, mem::kHostSpace));
    }
    if (options_.functional_execution && node.host_body) node.host_body();
    for (const mem::RegionAccess& access : node.accesses) {
      if (access.writes() && !access.region.empty())
        coherence_.note_write(access.region, mem::kHostSpace);
    }
    if (done > now) {
      engine_.schedule_at(done, [this, id] {
        finish_task(id, std::nullopt, engine_.now());
      });
    } else {
      finish_task(id, std::nullopt, now);
    }
  }

  void run_barrier(TaskId id, SimTime now) {
    ++report_.barriers;
    SimTime done = now;
    for (const mem::TransferOp& op : coherence_.plan_flush_to_host()) {
      const SimTime flush_end = issue_transfer(op, now);
      done = std::max(done, flush_end);
      // Bill the flush to the tasks that produced the data, so a
      // performance-aware scheduler learns the true synchronization cost
      // of accelerator placement.
      const RangeMap<TaskId>& writer_map = last_writer_[op.region.buffer];
      if (writer_map.empty()) continue;
      writer_map.for_each_overlapping(
          op.region.range, [&](Interval, TaskId writer_id) {
            const TaskNode& writer = graph_.node(writer_id);
            if (writer.is_host_op || writer.is_barrier) return;
            // Bill the wall time from the barrier's start to this op's
            // landing (what a runtime's stopwatch around the flush would
            // read — including the queueing behind earlier flush ops).
            scheduler_.on_flush(sched_info_[writer_id], op.src,
                                flush_end - now, now);
          });
    }
    // The flush also waits for write-backs still in flight (queue drain),
    // then drops the device copies: after an OmpSs-era taskwait, device
    // data is considered stale and later kernels re-fetch from the host.
    done = std::max(done, link_.available_at());
    coherence_.invalidate_device_copies();
    done += costs_.taskwait_overhead;
    report_.overhead_time += costs_.taskwait_overhead;
    if (options_.record_trace)
      report_.trace.record("host", "taskwait", sim::TraceKind::kSync, now,
                           done);
    engine_.schedule_at(done, [this, id] {
      finish_task(id, std::nullopt, engine_.now());
    });
  }

  void complete(TaskId id, hw::DeviceId d, std::size_t lane_index,
                SimTime compute, SimTime nominal, SimTime occupancy,
                std::uint64_t epoch, SimTime now) {
    // A device failure displaced this dispatch after its completion event
    // was scheduled (the engine has no event cancellation): the chunk is
    // riding a retry elsewhere, or was abandoned. Ignore the stale event.
    if (dispatch_epoch_[id] != epoch) return;
    running_valid_[lane_begin_[d] + lane_index] = 0;
    // Asynchronous write-back: final outputs (no later kernel touches them)
    // head home immediately, overlapping the copy with the OTHER devices'
    // compute so the eventual taskwait finds them already in host memory.
    // The copy-back shares the accelerator's in-order queue: it blocks the
    // device lane for its duration (OpenCL-style), and the scheduler
    // observes it as part of the instance's occupancy.
    if (d != hw::kCpuDevice) {
      const TaskNode& node = graph_.node(id);
      sim::Resource& lane = lanes_[lane_begin_[d]];
      for (std::size_t a = 0; a < node.accesses.size(); ++a) {
        if (!node.writeback_eligible[a]) continue;
        coherence_.plan_acquire(node.accesses[a].region, mem::kHostSpace,
                                acquire_scratch_);
        for (const mem::TransferOp& op : acquire_scratch_) {
          issue_transfer(op, now, &lane);
        }
      }
      if (lane.available_at() > now) {
        occupancy += lane.available_at() - now;
        if (obs_)
          obs_span(id, obs::SpanPhase::kD2H, now, lane.available_at(),
                   "write-back from " + devices_[d].name);
        // Wake the dispatcher when the queue drains so waiting work resumes.
        engine_.schedule_at(lane.available_at(),
                            [this] { pump(engine_.now()); });
      }
    }
    if (obs_) {
      obs_span(id, obs::SpanPhase::kComplete, now, now, devices_[d].name);
      obs_count("chunks_completed");
    }
    scheduler_.on_complete(sched_info_[id], d, compute, occupancy, now);
    bool rediverged = false;
    if (injector_) rediverged = check_divergence(d, compute, nominal, now);
    if (probe_inflight_ && probe_inflight_->first == id &&
        probe_inflight_->second == d) {
      probe_inflight_.reset();
      // The probe survived on the once-benched device: its estimate has just
      // re-seeded from a healthy observation, so re-offer the other devices'
      // dynamic backlog and let it win work back.
      if (!rediverged) rebalance_after_probe(d, now);
    }
    if (retry_count_[id] > 0) ++report_.faults.migrated_tasks;
    finish_task(id, d, now);
    if (injector_) maybe_probe(now);
  }

  /// The chunk took `compute` against a model prediction of `nominal`. When
  /// the gap exceeds the plan's divergence threshold, the device is slower
  /// than the partitioning believed: tell the scheduler (which just saw the
  /// slow completion via on_complete, so its estimates are current) and pull
  /// the device's dynamically placed backlog back through it — the DP
  /// re-partitioning loop. Statically pinned chunks stay put: SP strategies
  /// intentionally do not adapt.
  bool check_divergence(hw::DeviceId d, SimTime compute, SimTime nominal,
                        SimTime now) {
    if (nominal <= 0) return false;
    const double threshold = injector_->retry().divergence_threshold;
    if (static_cast<double>(compute) <=
        threshold * static_cast<double>(nominal))
      return false;
    ++report_.faults.divergence_events;
    obs_count("divergence_events");
    SimTime busy_until = now;
    for (std::size_t f = lane_begin_[d]; f < lane_begin_[d + 1]; ++f)
      busy_until = std::max(busy_until, lanes_[f].available_at());
    scheduler_.on_divergence(d, busy_until, now);

    std::deque<TaskId>& queue = ready_[d];
    std::deque<TaskId> keep;
    std::vector<TaskId> drained;
    for (TaskId q : queue) {
      if (graph_.node(q).pinned_device) keep.push_back(q);
      else drained.push_back(q);
    }
    if (drained.empty()) return true;
    queue = std::move(keep);
    obs_track(queue_key_d(d), now, -static_cast<double>(drained.size()));
    report_.faults.repartitioned_tasks +=
        static_cast<std::int64_t>(drained.size());
    if (options_.record_trace)
      report_.trace.record("faults",
                           "re-partition " + std::to_string(drained.size()) +
                               " chunks off " + devices_[d].name,
                           sim::TraceKind::kRecovery, now, now);
    for (TaskId q : drained) {
      if (affinity_[q] && *affinity_[q] == d) affinity_[q].reset();
      obs_span(q, obs::SpanPhase::kMigrate, now, now,
               "re-partition off " + devices_[d].name);
      announce(q, now);
    }
    return true;
  }

  /// Probe-and-forgive: after a completion (fault plans only), ask the
  /// scheduler whether a benched device has earned a probe. If so, reroute
  /// one queued compatible chunk there; its completion re-seeds the
  /// scheduler's estimate (forgiveness) and triggers a rebalance.
  void maybe_probe(SimTime now) {
    if (probe_inflight_) return;
    const auto target = scheduler_.probe_request(now);
    if (!target || failed_[*target]) return;

    // Victim: an unpinned compatible chunk from the back of the deepest
    // other queue (least imminent work — stealing it costs the donor least).
    std::optional<hw::DeviceId> source;
    std::size_t best_depth = 0;
    for (hw::DeviceId d = 0; d < devices_.size(); ++d) {
      if (d == *target || failed_[d]) continue;
      const std::deque<TaskId>& queue = ready_[d];
      bool movable = false;
      for (TaskId q : queue) {
        if (!graph_.node(q).pinned_device && sched_info_[q].runs_on(*target)) {
          movable = true;
          break;
        }
      }
      if (movable && queue.size() > best_depth) {
        source = d;
        best_depth = queue.size();
      }
    }
    std::optional<TaskId> chosen;
    if (source) {
      std::deque<TaskId>& queue = ready_[*source];
      for (auto it = queue.rbegin(); it != queue.rend(); ++it) {
        if (!graph_.node(*it).pinned_device &&
            sched_info_[*it].runs_on(*target)) {
          chosen = *it;
          queue.erase(std::next(it).base());
          obs_track(queue_key_d(*source), now, -1);
          break;
        }
      }
    } else if (auto handle =
                   pool_.oldest(*target, ReadyPool::Affinity::kAny)) {
      chosen = pool_.take(*handle).id;
      obs_track("pool_depth", now, -1);
    }
    if (!chosen) return;

    probe_inflight_ = {*chosen, *target};
    ready_[*target].push_back(*chosen);
    obs_track(queue_key_d(*target), now, 1);
    obs_span(*chosen, obs::SpanPhase::kMigrate, now, now,
             "probe to " + devices_[*target].name);
    obs_count("probe_chunks");
    if (obs_) {
      obs::PlacementRecord record;
      record.task = *chosen;
      record.kernel = kernels_[graph_.node(*chosen).kernel].name;
      record.device = devices_[*target].name;
      record.reason = "probe";
      record.time = now;
      obs_->audit.add(std::move(record));
    }
    if (options_.record_trace)
      report_.trace.record("faults",
                           "probe chunk " + std::to_string(*chosen) + " to " +
                               devices_[*target].name,
                           sim::TraceKind::kRecovery, now, now);
    scheduler_.on_probe_dispatched(*target, now);
    pump(now);
  }

  /// The probe completed healthy: pull every other device's dynamically
  /// placed backlog back through the scheduler so the forgiven device can
  /// win work again (the reverse of the divergence drain).
  void rebalance_after_probe(hw::DeviceId probed, SimTime now) {
    std::vector<TaskId> drained;
    for (hw::DeviceId d = 0; d < devices_.size(); ++d) {
      if (d == probed || failed_[d]) continue;
      std::deque<TaskId>& queue = ready_[d];
      std::deque<TaskId> keep;
      std::size_t pulled = 0;
      for (TaskId q : queue) {
        if (graph_.node(q).pinned_device) {
          keep.push_back(q);
        } else {
          drained.push_back(q);
          ++pulled;
        }
      }
      if (pulled == 0) continue;
      queue = std::move(keep);
      obs_track(queue_key_d(d), now, -static_cast<double>(pulled));
    }
    if (drained.empty()) return;
    report_.faults.repartitioned_tasks +=
        static_cast<std::int64_t>(drained.size());
    if (options_.record_trace)
      report_.trace.record("faults",
                           "re-offer " + std::to_string(drained.size()) +
                               " chunks after probe on " +
                               devices_[probed].name,
                           sim::TraceKind::kRecovery, now, now);
    for (TaskId q : drained) {
      obs_span(q, obs::SpanPhase::kMigrate, now, now,
               "re-offer after probe on " + devices_[probed].name);
      announce(q, now);
    }
  }

  /// Permanent device failure (fault injection): displace everything the
  /// device holds and never use it again.
  void on_device_failure(hw::DeviceId d, SimTime now) {
    if (failed_[d]) return;
    failed_[d] = true;
    obs_count("device_failures");
    if (probe_inflight_ && probe_inflight_->second == d)
      probe_inflight_.reset();
    scheduler_.on_device_failed(d, now);

    // In-flight dispatches are lost. Reverse their accounting (so work
    // conservation holds once they re-run elsewhere) and invalidate their
    // pending completion events via the dispatch epoch.
    std::vector<TaskId> displaced;
    for (std::size_t f = lane_begin_[d]; f < lane_begin_[d + 1]; ++f) {
      if (!running_valid_[f]) continue;
      const InFlight& slot = running_[f];
      DeviceReport& dr = report_.devices[d];
      dr.compute_time -= slot.compute;
      --dr.instances;
      auto it = dr.items_per_kernel.find(slot.kernel);
      HS_ASSERT(it != dr.items_per_kernel.end());
      it->second -= slot.items;
      if (it->second == 0) dr.items_per_kernel.erase(it);
      ++dispatch_epoch_[slot.id];
      displaced.push_back(slot.id);
      running_valid_[f] = 0;
    }
    std::deque<TaskId>& queue = ready_[d];
    displaced.insert(displaced.end(), queue.begin(), queue.end());
    if (!queue.empty())
      obs_track(queue_key_d(d), now, -static_cast<double>(queue.size()));
    queue.clear();

    // The dead device's memory is gone. Recovery model: every byte it held
    // re-validates on the host (checkpoint-on-host shadow) with no billed
    // transfer — the dead device cannot DMA its memory out — so surviving
    // devices re-fetch what they need over the link as usual.
    coherence_.reclaim_space_to_host(space_of(d));
    for (mem::BufferId b = 0; b < num_buffers_; ++b) {
      region_ready_[sb_index(space_of(d), b)].clear();
      last_touch_[sb_index(space_of(d), b)] = 0;
    }

    // Pool tasks bound to the dead chain become free agents (in ready
    // order); pool tasks no surviving device can run are abandoned, newest
    // first.
    pool_.unbind(d);
    for (const SchedTask& t : pool_.take_if([this](const SchedTask& task) {
           return !runnable_somewhere(task);
         })) {
      abandon(t.id, now, "no surviving device runs it");
      obs_track("pool_depth", now, -1);
    }

    for (TaskId id : displaced) retry_or_abandon(id, d, now);
    pump(now);
  }

  void retry_or_abandon(TaskId id, hw::DeviceId failed_device, SimTime now) {
    const TaskNode& node = graph_.node(id);
    if (node.pinned_device) {
      // Static partitioning has nowhere to move the chunk: report honestly.
      abandon(id, now, "pinned to failed " + devices_[failed_device].name);
      return;
    }
    if (affinity_[id] && *affinity_[id] == failed_device)
      affinity_[id].reset();
    const faults::RetryPolicy& retry = injector_->retry();
    const int attempt = ++retry_count_[id];
    if (attempt > retry.max_retries) {
      abandon(id, now, "retry budget exhausted");
      return;
    }
    ++report_.faults.retries;
    last_fault_action_ = std::max(last_fault_action_, now);
    // Exponential virtual-time backoff before the chunk re-enters
    // scheduling (a real runtime would spend this re-establishing contexts).
    double delay = static_cast<double>(retry.backoff_base);
    for (int i = 1; i < attempt; ++i) delay *= retry.backoff_multiplier;
    const SimTime at =
        now + std::max<SimTime>(static_cast<SimTime>(std::llround(delay)), 0);
    obs_span(id, obs::SpanPhase::kRetry, now, at,
             "off " + devices_[failed_device].name + ", attempt " +
                 std::to_string(attempt));
    obs_count("chunks_retried");
    obs_track("retry_backlog", now, 1);
    obs_track("retry_backlog", at, -1);
    if (options_.record_trace)
      report_.trace.record("faults",
                           "retry " + std::to_string(attempt) + " task " +
                               std::to_string(id),
                           sim::TraceKind::kRecovery, now, at);
    engine_.schedule_at(at, [this, id] { announce(id, engine_.now()); });
  }

  /// Post-run: count the plan events that actually landed inside the run
  /// and, when tracing, paint them as annotated rows on a "faults" lane.
  void record_injected_faults() {
    const std::vector<faults::FaultEvent> injected =
        injector_->events_started_by(report_.makespan);
    report_.faults.injected_faults =
        static_cast<std::int64_t>(injected.size());
    std::set<hw::DeviceId> dead;
    for (const faults::FaultEvent& event : injected)
      if (event.kind == faults::FaultKind::kDeviceFailure)
        dead.insert(event.device);
    report_.faults.failed_devices = static_cast<std::int64_t>(dead.size());
    if (!options_.record_trace) return;
    for (const faults::FaultEvent& event : injected) {
      const bool failure =
          event.kind == faults::FaultKind::kDeviceFailure;
      const SimTime end =
          failure ? report_.makespan
                  : std::min(event.start + event.duration, report_.makespan);
      std::string label = faults::fault_kind_name(event.kind);
      if (event.kind != faults::FaultKind::kLinkDegrade)
        label += " " + devices_[event.device].name;
      if (event.kind == faults::FaultKind::kSlowdown ||
          event.kind == faults::FaultKind::kLinkDegrade)
        label += " x" + json::format_double(event.magnitude);
      report_.trace.record("faults", label, sim::TraceKind::kFault,
                           event.start, std::max(end, event.start));
    }
  }

  void finish_task(TaskId id, std::optional<hw::DeviceId> device,
                   SimTime now) {
    HS_ASSERT_MSG(!completed_[id], "task " << id << " completed twice");
    completed_[id] = true;
    last_completion_ = std::max(last_completion_, now);
    if (explore_ != nullptr)
      report_.schedule.completions.emplace_back(id, now);
    if (!graph_.node(id).is_barrier && !graph_.node(id).is_host_op)
      ++report_.tasks_executed;

    for (TaskId succ : graph_.node(id).successors) {
      // Dependency-chain affinity: a consumer inherits its producer's device
      // as a locality hint (barriers break chains — data is flushed home).
      if (device && !graph_.node(succ).is_barrier) affinity_[succ] = *device;
      HS_ASSERT_MSG(remaining_deps_[succ] > 0,
                    "dependency count underflow at task " << succ);
      if (--remaining_deps_[succ] == 0) make_ready(succ, now);
    }
    pump(now);
  }

  /// Evicts least-recently-used buffers from device `d` until this task's
  /// working set fits its memory capacity. Returns the time the space is
  /// ready (evictions ride the link). Throws StateError when the task's
  /// own working set cannot fit.
  SimTime ensure_capacity(const TaskNode& node, hw::DeviceId d,
                          SimTime now) {
    const auto capacity = static_cast<std::int64_t>(
        devices_[d].mem_capacity_gb * 1e9);
    const mem::SpaceId space = space_of(d);

    // Bytes this task will occupy that are not yet resident.
    std::int64_t needed = 0;
    std::int64_t own_footprint = 0;
    std::set<mem::BufferId> referenced;
    for (const mem::RegionAccess& access : node.accesses) {
      if (access.region.empty()) continue;
      referenced.insert(access.region.buffer);
      own_footprint += access.region.size_bytes();
      for (const Interval& gap :
           coherence_.gaps_in_space(access.region, space))
        needed += gap.length();
    }
    HS_REQUIRE(own_footprint <= capacity,
               "task working set of " << own_footprint
                                      << " bytes exceeds device memory of "
                                      << devices_[d].name);

    SimTime done = now;
    while (coherence_.resident_bytes(space) + needed > capacity) {
      // LRU victim among buffers resident here and not used by this task.
      std::optional<mem::BufferId> victim;
      SimTime oldest = 0;
      for (std::size_t buffer = 0; buffer < coherence_.buffer_count();
           ++buffer) {
        if (referenced.count(buffer)) continue;
        if (coherence_.resident_bytes_of(buffer, space) == 0) continue;
        const SimTime touched = last_touch_[sb_index(space, buffer)];
        if (!victim || touched < oldest) {
          victim = buffer;
          oldest = touched;
        }
      }
      HS_REQUIRE(victim.has_value(),
                 "cannot make room on " << devices_[d].name
                                        << ": every resident buffer is in "
                                           "use by the dispatching task");
      for (const mem::TransferOp& op :
           coherence_.plan_evict(*victim, space)) {
        done = std::max(done, issue_transfer(op, done));
      }
      coherence_.drop_copies(*victim, space);
    }
    return done;
  }

  /// Latest in-flight readiness time of any part of `region` in `space`.
  SimTime region_ready_time(const mem::Region& region,
                            mem::SpaceId space) const {
    SimTime latest = 0;
    region_ready_[sb_index(space, region.buffer)].for_each_overlapping(
        region.range, [&latest](Interval, SimTime ready) {
          latest = std::max(latest, ready);
        });
    return latest;
  }

  void note_residency() {
    for (std::size_t s = 0; s < devices_.size(); ++s) {
      report_.peak_resident_bytes[s] = std::max(
          report_.peak_resident_bytes[s],
          coherence_.resident_bytes(s));
    }
  }

  /// Flat (space, buffer) index into region_ready_ / last_touch_.
  std::size_t sb_index(mem::SpaceId space, mem::BufferId buffer) const {
    return space * num_buffers_ + buffer;
  }

  const hw::PlatformSpec& platform_;
  const RuntimeCosts& costs_;
  const RuntimeOptions& options_;
  const hw::RooflineCostModel& cost_model_;
  const std::vector<KernelDef>& kernels_;
  Scheduler& scheduler_;
  /// Schedule-exploration strategy (null = canonical schedule). Not owned.
  ExploreStrategy* explore_;
  /// The executor's run arena: every flat bookkeeping array below marked
  /// "arena" lives here and is freed wholesale by the next run's reset.
  mem::Arena& arena_;

  std::vector<hw::DeviceSpec> devices_;
  sim::Engine engine_;
  mem::CoherenceDirectory coherence_;
  sim::Resource link_;
  std::size_t num_buffers_ = 0;

  /// Per-device mutable state, struct-of-arrays: all devices' lanes in one
  /// flat vector (device d owns [lane_begin_[d], lane_begin_[d+1])), ready
  /// queues and failure flags in parallel arrays indexed by device, and
  /// in-flight dispatch slots in parallel arrays indexed by flat lane. The
  /// hot loops (pump/dispatch/complete) walk contiguous memory instead of
  /// chasing per-device structs of containers.
  std::vector<sim::Resource> lanes_;
  std::uint32_t* lane_begin_ = nullptr;  // arena, devices+1 entries
  std::vector<std::deque<TaskId>> ready_;
  std::uint8_t* failed_ = nullptr;  // arena, per device

  TaskGraph graph_;
  std::size_t* remaining_deps_ = nullptr;               // arena, per task
  SchedTask* sched_info_ = nullptr;                     // arena, per task
  std::optional<hw::DeviceId>* affinity_ = nullptr;     // arena, per task
  std::uint8_t* completed_ = nullptr;                   // arena, per task
  ReadyPool pool_;
  /// Reused output buffer for coherence_.plan_acquire on the hot paths.
  std::vector<mem::TransferOp> acquire_scratch_;

  /// Fault-injection state (all empty/default when no plan is armed).
  std::optional<faults::FaultInjector> injector_;
  int* retry_count_ = nullptr;  // arena, per task
  /// Bumped when a failure displaces a task's dispatch; completion events
  /// carry the epoch they were scheduled under and stale ones are ignored.
  std::uint64_t* dispatch_epoch_ = nullptr;  // arena, per task
  std::uint8_t* body_ran_ = nullptr;         // arena, per task
  struct InFlight {
    TaskId id = 0;
    SimTime compute = 0;
    KernelId kernel = 0;
    std::int64_t items = 0;
  };
  /// The dispatch currently occupying each flat lane (valid flag beside).
  InFlight* running_ = nullptr;             // arena, per flat lane
  std::uint8_t* running_valid_ = nullptr;   // arena, per flat lane
  /// Probe chunk currently en route to a benched device (task, device).
  std::optional<std::pair<TaskId, hw::DeviceId>> probe_inflight_;

  /// Observability sinks (null when record_observability is off) and the
  /// per-device metric keys built once at construction.
  obs::RunObservability* obs_ = nullptr;
  std::vector<std::string> queue_key_;
  std::vector<std::string> compute_hist_key_;
  std::vector<std::string> dispatch_key_;

  ExecutionReport report_;
  SimTime last_completion_ = 0;
  /// Latest abandon/retry moment; on a DNF run fault handling can outlast
  /// the last completion, and the run window must still cover it.
  SimTime last_fault_action_ = 0;
  /// Flat [space × buffer]: byte ranges -> time their current copy lands.
  std::vector<RangeMap<SimTime>> region_ready_;
  /// Per buffer: byte ranges -> task that last wrote them (flush billing).
  std::vector<RangeMap<TaskId>> last_writer_;
  /// Flat [space × buffer]: last dispatch that touched it (LRU eviction;
  /// 0 = never touched). Arena-allocated.
  SimTime* last_touch_ = nullptr;
};

}  // namespace

ExecutionReport Executor::execute(const Program& program,
                                  Scheduler& scheduler) {
  const obs::ScopedPhase phase(obs::kPhaseSimEventLoop);
  std::optional<Run> run;
  {
    // Run construction builds the task graph and sizes the run state.
    const obs::ScopedPhase setup(obs::kPhaseExecSetup);
    std::vector<std::pair<std::string, std::int64_t>> buffer_specs;
    buffer_specs.reserve(buffers_.size());
    for (const BufferInfo& info : buffers_)
      buffer_specs.emplace_back(info.name, info.size_bytes);
    run.emplace(platform_, costs_, options_, cost_model_, kernels_,
                buffer_specs, program, scheduler, fault_plan_, explore_,
                run_arena_);
  }
  return run->execute();
}

ExecutionReport Executor::execute_pinned(const Program& program) {
  for (const ProgramOp& op : program.ops()) {
    if (op.kind == ProgramOp::Kind::kSubmit) {
      HS_REQUIRE(op.submit.pinned_device.has_value(),
                 "execute_pinned: program contains an unpinned task");
    }
  }
  FifoScheduler fifo;
  return execute(program, fifo);
}

}  // namespace hetsched::rt
