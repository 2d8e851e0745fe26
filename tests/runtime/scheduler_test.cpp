#include <gtest/gtest.h>

#include "hw/platform.hpp"
#include "runtime/executor.hpp"
#include "runtime/schedulers/breadth_first.hpp"
#include "runtime/schedulers/perf_aware.hpp"
#include "tests/runtime/test_kernels.hpp"

namespace hetsched::rt {
namespace {

using testing::kItemBytes;
using testing::make_map_kernel;

constexpr hw::DeviceId kCpu = hw::kCpuDevice;
constexpr hw::DeviceId kGpu = 1;

SchedTask make_task(TaskId id, std::int64_t items,
                    std::optional<hw::DeviceId> locality = std::nullopt) {
  SchedTask t;
  t.id = id;
  t.kernel = 0;
  t.items = items;
  t.locality = locality;
  return t;
}

/// A two-device pool holding `tasks` in ready order.
ReadyPool pool_of(const std::vector<SchedTask>& tasks) {
  ReadyPool pool(2);
  for (const SchedTask& task : tasks) pool.push(task);
  return pool;
}

/// The id of the task `sched` picks for `device`, if any.
std::optional<TaskId> picked(Scheduler& sched, hw::DeviceId device,
                             const ReadyPool& pool) {
  const auto handle = sched.pick(device, pool, 0);
  if (!handle) return std::nullopt;
  return pool.peek(*handle).id;
}

TEST(BreadthFirstScheduler, PrefersLocalChain) {
  BreadthFirstScheduler sched;
  const ReadyPool pool =
      pool_of({make_task(0, 10, kCpu), make_task(1, 10, kGpu)});
  EXPECT_EQ(picked(sched, kGpu, pool), 1u);
  EXPECT_EQ(picked(sched, kCpu, pool), 0u);
}

TEST(BreadthFirstScheduler, FreshTasksBeforeStealing) {
  BreadthFirstScheduler sched;
  const ReadyPool pool = pool_of({make_task(0, 10, kCpu), make_task(1, 10)});
  // GPU has no local task: takes the fresh one, not the CPU-affine one.
  EXPECT_EQ(picked(sched, kGpu, pool), 1u);
}

TEST(BreadthFirstScheduler, NeverStealsForeignChains) {
  // A task bound to another device's dependency chain is left alone even if
  // this device is idle — the scheduler's only goal is minimizing transfers
  // by keeping chains local (paper Section III-C).
  BreadthFirstScheduler sched;
  const ReadyPool pool = pool_of({make_task(0, 10, kCpu)});
  EXPECT_EQ(picked(sched, kGpu, pool), std::nullopt);
  EXPECT_EQ(picked(sched, kCpu, pool), 0u);
}

TEST(BreadthFirstScheduler, RespectsImplementationFlags) {
  BreadthFirstScheduler sched;
  SchedTask cpu_only = make_task(0, 10);
  cpu_only.gpu_ok = false;
  const ReadyPool pool = pool_of({cpu_only});
  EXPECT_EQ(picked(sched, kGpu, pool), std::nullopt);
  EXPECT_EQ(picked(sched, kCpu, pool), 0u);
}

TEST(BreadthFirstScheduler, EmptyPoolYieldsNothing) {
  BreadthFirstScheduler sched;
  const ReadyPool pool(2);
  EXPECT_EQ(picked(sched, kCpu, pool), std::nullopt);
}

class PerfAwareTest : public ::testing::Test {
 protected:
  PerfAwareTest() {
    platform_ = hw::make_reference_platform();
    sched_.begin_run(platform_, {});
  }

  hw::PlatformSpec platform_;
  PerfAwareScheduler sched_;
};

TEST_F(PerfAwareTest, SeededEstimatesDriveEft) {
  sched_.seed_estimate(0, kCpu, 1000.0);   // 1000 items/s per CPU lane
  sched_.seed_estimate(0, kGpu, 50000.0);  // GPU is 50x one lane
  // A stream of equal tasks: the first several go to the idle, faster GPU.
  EXPECT_EQ(sched_.on_ready(make_task(0, 100), 0), kGpu);
  EXPECT_EQ(sched_.on_ready(make_task(1, 100), 0), kGpu);
}

TEST_F(PerfAwareTest, QueueBacklogShiftsWorkToCpu) {
  sched_.seed_estimate(0, kCpu, 1000.0);
  sched_.seed_estimate(0, kGpu, 3000.0);  // GPU only 3x one of 12 lanes
  int gpu_count = 0, cpu_count = 0;
  for (TaskId i = 0; i < 24; ++i) {
    const auto device = sched_.on_ready(make_task(i, 100), 0);
    (device == kGpu ? gpu_count : cpu_count)++;
  }
  // With 12 CPU lanes at 1/3 GPU speed, the CPU should win most instances
  // once the GPU queue builds up (aggregate CPU rate = 4x GPU).
  EXPECT_GT(cpu_count, gpu_count);
  EXPECT_GT(gpu_count, 0);
}

TEST_F(PerfAwareTest, ExploresUnknownDevicesFirst) {
  // No estimates at all: the scheduler probes devices round-robin.
  const auto first = sched_.on_ready(make_task(0, 100), 0);
  const auto second = sched_.on_ready(make_task(1, 100), 0);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(*first, *second);  // both devices explored
}

TEST_F(PerfAwareTest, LearnsFromCompletions) {
  EXPECT_FALSE(sched_.has_estimate(0, kCpu));
  sched_.on_complete(make_task(0, 1000), kCpu, kSecond, kSecond, kSecond);
  EXPECT_TRUE(sched_.has_estimate(0, kCpu));
  EXPECT_NEAR(sched_.estimated_rate(0, kCpu), 1000.0, 1e-6);
}

TEST_F(PerfAwareTest, EmaBlendsObservations) {
  sched_.on_complete(make_task(0, 1000), kCpu, kSecond, kSecond, 0);
  sched_.on_complete(make_task(1, 3000), kCpu, kSecond, kSecond, 0);
  // alpha = 0.5: (1000 + 3000) / 2
  EXPECT_NEAR(sched_.estimated_rate(0, kCpu), 2000.0, 1e-6);
}

TEST_F(PerfAwareTest, OccupancyVersusComputeOnlyEstimates) {
  // Occupancy 2s vs compute 1s for 1000 items.
  sched_.on_complete(make_task(0, 1000), kGpu, kSecond, 2 * kSecond, 0);
  EXPECT_NEAR(sched_.estimated_rate(0, kGpu), 500.0, 1e-6);

  PerfAwareScheduler compute_only(5 * kMicrosecond, 0.5, true);
  compute_only.begin_run(platform_, {});
  compute_only.on_complete(make_task(0, 1000), kGpu, kSecond, 2 * kSecond, 0);
  // Transfers invisible: the GPU looks twice as fast.
  EXPECT_NEAR(compute_only.estimated_rate(0, kGpu), 1000.0, 1e-6);
}

TEST_F(PerfAwareTest, PerKernelEstimatesAreIndependent) {
  sched_.seed_estimate(0, kCpu, 10.0);
  EXPECT_FALSE(sched_.has_estimate(1, kCpu));
  EXPECT_TRUE(sched_.has_estimate(0, kCpu));
}

TEST_F(PerfAwareTest, RejectsNonPositiveSeed) {
  EXPECT_THROW(sched_.seed_estimate(0, kCpu, 0.0), InvalidArgument);
}

/// End-to-end: on a single-kernel program where the GPU is vastly faster,
/// the perf-aware scheduler sends (almost) everything to the GPU while the
/// breadth-first scheduler spreads one instance per lane — the MatrixMul
/// story from the paper's Section IV-B1.
TEST(SchedulerIntegration, PerfAwareBeatsBreadthFirstOnGpuFriendlyKernel) {
  auto build = [](Executor& exec) {
    const auto a = exec.register_buffer("a", 12000 * kItemBytes);
    const auto b = exec.register_buffer("b", 12000 * kItemBytes);
    KernelDef def = make_map_kernel("heavy", a, b);
    def.traits.flops_per_item = 50000.0;  // strongly compute-bound
    def.traits.device_bytes_per_item = 8.0;
    exec.register_kernel(std::move(def));
    Program program;
    program.submit_chunked(0, 0, 12000, 12);
    program.taskwait();
    return program;
  };

  Executor exec(hw::make_reference_platform());
  const Program program = build(exec);

  PerfAwareScheduler perf;
  perf.seed_estimate(0, kCpu, 1.0e6 / 50000.0 * 16.0);  // rough lane rates
  perf.seed_estimate(0, kGpu, 1.0e6);
  const ExecutionReport perf_report = exec.execute(program, perf);

  BreadthFirstScheduler bf;
  const ExecutionReport bf_report = exec.execute(program, bf);

  // BF: every lane grabs one instance -> GPU gets exactly 1 of 12.
  EXPECT_EQ(bf_report.devices[kGpu].instances, 1u);
  EXPECT_EQ(bf_report.devices[kCpu].instances, 11u);
  // Perf-aware: GPU takes the lion's share and finishes much sooner.
  EXPECT_GT(perf_report.overall_fraction(kGpu), 0.5);
  EXPECT_LT(perf_report.makespan, bf_report.makespan);
}

TEST(SchedulerIntegration, BreadthFirstKeepsChainsLocal) {
  Executor exec(hw::make_reference_platform());
  const auto a = exec.register_buffer("a", 2400 * kItemBytes);
  const auto b = exec.register_buffer("b", 2400 * kItemBytes);
  const auto c = exec.register_buffer("c", 2400 * kItemBytes);
  exec.register_kernel(make_map_kernel("k0", a, b));
  exec.register_kernel(make_map_kernel("k1", b, c));

  Program program;
  program.submit_chunked(0, 0, 2400, 12);
  program.submit_chunked(1, 0, 2400, 12);
  program.taskwait();

  BreadthFirstScheduler bf;
  const ExecutionReport report = exec.execute(program, bf);
  // Chunk i of k1 should run where chunk i of k0 ran; the GPU chain is the
  // only one that would otherwise need a transfer, and locality keeps it on
  // device — so the only H2D is the GPU chain's initial input, and the only
  // D2H is its final flush (b and c pieces).
  EXPECT_EQ(report.transfers.h2d_count, 1u);
  EXPECT_EQ(report.partition_fraction(kGpu, 0),
            report.partition_fraction(kGpu, 1));
}

}  // namespace
}  // namespace hetsched::rt
