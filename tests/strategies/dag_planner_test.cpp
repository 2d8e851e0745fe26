#include "strategies/dag_planner.hpp"

#include <gtest/gtest.h>

#include "apps/registry.hpp"
#include "apps/spectral_dag.hpp"
#include "hw/platform.hpp"
#include "strategies/strategy_runner.hpp"
#include "tests/runtime/test_kernels.hpp"

namespace hetsched::strategies {
namespace {

using rt::testing::make_map_kernel;

RateTable uniform_rates(const std::vector<rt::KernelId>& kernels,
                        double cpu_rate, double gpu_rate) {
  RateTable rates;
  for (rt::KernelId k : kernels) {
    rates[{k, hw::kCpuDevice}] = cpu_rate;
    rates[{k, 1}] = gpu_rate;
  }
  return rates;
}

class DagPlannerTest : public ::testing::Test {
 protected:
  hw::PlatformSpec platform_ = hw::make_reference_platform();
  std::vector<rt::KernelDef> kernels_{
      make_map_kernel("k0", 0, 1),
      make_map_kernel("k1", 1, 2),
  };
};

TEST_F(DagPlannerTest, CoversEveryKernelTask) {
  rt::Program program;
  program.submit_chunked(0, 0, 1200, 6);
  program.submit_chunked(1, 0, 1200, 6);
  program.taskwait();
  DagPlanner planner(platform_, uniform_rates({0, 1}, 1e6, 1e7));
  const DagPlan plan = planner.plan(kernels_, program);
  EXPECT_EQ(plan.assignment.size(), 12u);
  EXPECT_GT(plan.predicted_seconds, 0.0);
  std::size_t total = 0;
  for (std::size_t count : plan.tasks_per_device) total += count;
  EXPECT_EQ(total, 12u);
}

TEST_F(DagPlannerTest, FastDeviceDominatesWhenItCanAbsorbEverything) {
  rt::Program program;
  program.submit_chunked(0, 0, 1200, 4);
  // GPU 1000x faster than a CPU lane: everything lands on it.
  DagPlanner planner(platform_, uniform_rates({0, 1}, 1e4, 1e7));
  const DagPlan plan = planner.plan(kernels_, program);
  for (hw::DeviceId d : plan.assignment) EXPECT_EQ(d, 1u);
}

TEST_F(DagPlannerTest, SlowAcceleratorIsAvoided) {
  rt::Program program;
  program.submit_chunked(0, 0, 1200, 4);
  DagPlanner planner(platform_, uniform_rates({0, 1}, 1e7, 1e3));
  const DagPlan plan = planner.plan(kernels_, program);
  for (hw::DeviceId d : plan.assignment) EXPECT_EQ(d, hw::kCpuDevice);
}

TEST_F(DagPlannerTest, ChainsStayOnOneDeviceWhenTransfersDominate) {
  // Producer-consumer chunks: moving the consumer across devices costs a
  // transfer; with comparable compute rates, the planner keeps chains local.
  rt::Program program;
  program.submit_chunked(0, 0, 120'000'000, 4);
  program.submit_chunked(1, 0, 120'000'000, 4);
  DagPlanner planner(platform_, uniform_rates({0, 1}, 1.2e9, 1e9));
  const DagPlan plan = planner.plan(kernels_, program);
  // Consumer chunk i follows producer chunk i (indices 4+i and i).
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(plan.assignment[4 + i], plan.assignment[i]);
  }
}

TEST_F(DagPlannerTest, ApplyPinsEveryTask) {
  rt::Program program;
  program.submit_chunked(0, 0, 1200, 3);
  program.taskwait();
  program.submit_chunked(1, 0, 1200, 3);
  DagPlanner planner(platform_, uniform_rates({0, 1}, 1e6, 1e7));
  const DagPlan plan = planner.plan(kernels_, program);
  const rt::Program pinned = planner.apply(program, plan);
  EXPECT_EQ(pinned.task_count(), program.task_count());
  EXPECT_EQ(pinned.taskwait_count(), program.taskwait_count());
  for (const auto& op : pinned.ops()) {
    if (op.kind == rt::ProgramOp::Kind::kSubmit) {
      EXPECT_TRUE(op.submit.pinned_device.has_value());
    }
  }
}

TEST_F(DagPlannerTest, MissingRateRejected) {
  rt::Program program;
  program.submit(0, 0, 100);
  DagPlanner planner(platform_, {});
  EXPECT_THROW(planner.plan(kernels_, program), InvalidArgument);
}

TEST(SpDagStrategy, ExecutesAndVerifiesOnSpectralDag) {
  apps::Application::Config config;
  config.items = 4096;
  config.iterations = 3;
  config.functional = true;
  apps::SpectralDagApp app(hw::make_reference_platform(), config);
  StrategyRunner runner(app);
  const StrategyResult result = runner.run(analyzer::StrategyKind::kSPDag);
  EXPECT_EQ(result.kind, analyzer::StrategyKind::kSPDag);
  EXPECT_GT(result.report.makespan, 0);
  // Fully static: no scheduler decisions were taken.
  EXPECT_EQ(result.report.scheduling_decisions, 0u);
  app.verify();
}

TEST(SpDagStrategy, WorksOnRegularAppsToo) {
  auto app = apps::make_paper_app(
      apps::PaperApp::kStreamSeq, hw::make_reference_platform(),
      apps::test_config(apps::PaperApp::kStreamSeq));
  StrategyRunner runner(*app);
  runner.run(analyzer::StrategyKind::kSPDag);
  app->verify();
}

}  // namespace
}  // namespace hetsched::strategies
