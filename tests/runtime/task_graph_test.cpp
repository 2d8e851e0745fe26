#include "runtime/task_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "runtime/program.hpp"
#include "tests/runtime/test_kernels.hpp"

namespace hetsched::rt {
namespace {

using testing::make_inplace_kernel;
using testing::make_map_kernel;

bool has_edge(const TaskGraph& graph, TaskId from, TaskId to) {
  const auto& succ = graph.node(from).successors;
  return std::find(succ.begin(), succ.end(), to) != succ.end();
}

class TaskGraphTest : public ::testing::Test {
 protected:
  // Buffers are identified by arbitrary ids; the graph only needs sizes to
  // be consistent with accesses, which test kernels keep item-aligned.
  static constexpr mem::BufferId kA = 0, kB = 1, kC = 2;

  std::vector<KernelDef> kernels_{
      make_map_kernel("produce", kA, kB),    // kernel 0: reads A writes B
      make_map_kernel("consume", kB, kC),    // kernel 1: reads B writes C
      make_inplace_kernel("update", kB),     // kernel 2: inout B
  };
};

TEST_F(TaskGraphTest, IndependentTasksHaveNoEdges) {
  Program program;
  program.submit(0, 0, 100).submit(0, 100, 200);  // disjoint writes/reads
  TaskGraph graph(kernels_, program);
  EXPECT_EQ(graph.edge_count(), 0u);
  EXPECT_EQ(graph.initial_ready().size(), 2u);
}

TEST_F(TaskGraphTest, RawDependency) {
  Program program;
  program.submit(0, 0, 100);   // writes B[0,100)
  program.submit(1, 0, 100);   // reads B[0,100)
  TaskGraph graph(kernels_, program);
  EXPECT_TRUE(has_edge(graph, 0, 1));
  EXPECT_EQ(graph.node(1).predecessor_count, 1u);
  EXPECT_EQ(graph.initial_ready(), (std::vector<TaskId>{0}));
}

TEST_F(TaskGraphTest, RawOnlyOnOverlap) {
  Program program;
  program.submit(0, 0, 100);    // writes B[0,100)
  program.submit(1, 100, 200);  // reads B[100,200) — disjoint
  TaskGraph graph(kernels_, program);
  EXPECT_FALSE(has_edge(graph, 0, 1));
  EXPECT_EQ(graph.edge_count(), 0u);
}

TEST_F(TaskGraphTest, PartialOverlapCreatesEdge) {
  Program program;
  program.submit(0, 0, 100);
  program.submit(1, 50, 150);  // overlapping read [50,100)
  TaskGraph graph(kernels_, program);
  EXPECT_TRUE(has_edge(graph, 0, 1));
}

TEST_F(TaskGraphTest, WawDependency) {
  Program program;
  program.submit(0, 0, 100);
  program.submit(0, 0, 100);  // writes same range of B again
  TaskGraph graph(kernels_, program);
  EXPECT_TRUE(has_edge(graph, 0, 1));
}

TEST_F(TaskGraphTest, WarDependency) {
  Program program;
  program.submit(1, 0, 100);  // reads B
  program.submit(0, 0, 100);  // writes B -> WAR on the reader
  TaskGraph graph(kernels_, program);
  EXPECT_TRUE(has_edge(graph, 0, 1));
}

TEST_F(TaskGraphTest, InoutChainSerializes) {
  Program program;
  for (int i = 0; i < 4; ++i) program.submit(2, 0, 100);
  TaskGraph graph(kernels_, program);
  for (TaskId i = 0; i + 1 < 4; ++i) EXPECT_TRUE(has_edge(graph, i, i + 1));
  EXPECT_EQ(graph.initial_ready().size(), 1u);
}

TEST_F(TaskGraphTest, InoutDoesNotSelfDepend) {
  Program program;
  program.submit(2, 0, 100);
  TaskGraph graph(kernels_, program);
  EXPECT_EQ(graph.edge_count(), 0u);
}

TEST_F(TaskGraphTest, ReadersShareThenWriterWaitsForAll) {
  Program program;
  program.submit(0, 0, 100);  // t0 writes B
  program.submit(1, 0, 50);   // t1 reads B (disjoint C writes)
  program.submit(1, 50, 100); // t2 reads B
  program.submit(2, 0, 100);  // t3 writes B -> WAR on t1 and t2
  TaskGraph graph(kernels_, program);
  EXPECT_TRUE(has_edge(graph, 0, 1));
  EXPECT_TRUE(has_edge(graph, 0, 2));
  EXPECT_FALSE(has_edge(graph, 1, 2));  // readers are concurrent
  EXPECT_TRUE(has_edge(graph, 1, 3));
  EXPECT_TRUE(has_edge(graph, 2, 3));
}

TEST_F(TaskGraphTest, BarrierWaitsForEverything) {
  Program program;
  program.submit(0, 0, 100).submit(0, 100, 200).taskwait().submit(0, 200,
                                                                  300);
  TaskGraph graph(kernels_, program);
  ASSERT_EQ(graph.size(), 4u);
  const TaskId barrier = 2;
  EXPECT_TRUE(graph.node(barrier).is_barrier);
  EXPECT_TRUE(has_edge(graph, 0, barrier));
  EXPECT_TRUE(has_edge(graph, 1, barrier));
  EXPECT_TRUE(has_edge(graph, barrier, 3));
  EXPECT_EQ(graph.node(3).predecessor_count, 1u);
}

TEST_F(TaskGraphTest, ConsecutiveBarriersChain) {
  Program program;
  program.submit(0, 0, 100).taskwait().taskwait();
  TaskGraph graph(kernels_, program);
  EXPECT_TRUE(has_edge(graph, 1, 2));
}

TEST_F(TaskGraphTest, CrossBarrierDataDepsFlowThroughBarrier) {
  Program program;
  program.submit(0, 0, 100);  // writes B
  program.taskwait();
  program.submit(1, 0, 100);  // reads B: only the barrier edge is needed
  TaskGraph graph(kernels_, program);
  EXPECT_FALSE(has_edge(graph, 0, 2));
  EXPECT_TRUE(has_edge(graph, 1, 2));
  EXPECT_EQ(graph.node(2).predecessor_count, 1u);
}

TEST_F(TaskGraphTest, StreamStylePipelineHasPerChunkChains) {
  // Two kernels chunked over disjoint ranges: chunk i of the consumer
  // depends only on chunk i of the producer (inter-kernel parallelism).
  Program program;
  program.submit_chunked(0, 0, 400, 4);
  program.submit_chunked(1, 0, 400, 4);
  TaskGraph graph(kernels_, program);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(has_edge(graph, i, 4 + i));
    for (int j = 0; j < 4; ++j) {
      if (j != i) {
        EXPECT_FALSE(has_edge(graph, i, 4 + j));
      }
    }
  }
}

TEST_F(TaskGraphTest, WritebackLooksPastTaskwaitForTheNextToucher) {
  // The next-toucher rule ignores barriers. B's next toucher is a kernel
  // past the taskwait, so t0 keeps B resident (the barrier flushes it); C's
  // is a host op past the second taskwait, so t2 writes C back eagerly.
  Program program;
  program.submit(0, 0, 100);  // 0: reads A, writes B
  program.taskwait();         // 1
  program.submit(1, 0, 100);  // 2: reads B, writes C
  program.taskwait();         // 3
  program.host_op({{testing::item_region(kC, 0, 100),
                    mem::AccessMode::kRead}});  // 4
  TaskGraph graph(kernels_, program);
  ASSERT_EQ(graph.size(), 5u);
  EXPECT_TRUE(graph.node(1).writeback_eligible.empty());  // barrier
  EXPECT_EQ(graph.node(0).writeback_eligible,
            (std::vector<bool>{false, false}));
  EXPECT_EQ(graph.node(2).writeback_eligible,
            (std::vector<bool>{false, true}));
  EXPECT_EQ(graph.node(4).writeback_eligible, (std::vector<bool>{false}));
}

TEST_F(TaskGraphTest, ProgramTailOutputIsWritebackEligible) {
  // No later node touches C at all: a program-tail output is written back
  // as soon as its task completes; B, read by t1, stays resident.
  Program program;
  program.submit(0, 0, 100);  // t0: reads A, writes B
  program.submit(1, 0, 50);   // t1: reads B[0,50), writes C[0,50)
  TaskGraph graph(kernels_, program);
  EXPECT_EQ(graph.node(0).writeback_eligible,
            (std::vector<bool>{false, false}));
  EXPECT_EQ(graph.node(1).writeback_eligible,
            (std::vector<bool>{false, true}));
  // t2 rewrites B[50,100), which t1 never read and nothing later touches:
  // a tail output too, while t0 still has t1 as its next toucher.
  program.submit(0, 50, 100);
  TaskGraph longer(kernels_, program);
  EXPECT_EQ(longer.node(0).writeback_eligible,
            (std::vector<bool>{false, false}));
  EXPECT_EQ(longer.node(2).writeback_eligible,
            (std::vector<bool>{false, true}));
}

TEST_F(TaskGraphTest, PinnedDevicePropagates) {
  Program program;
  program.submit(0, 0, 100, hw::DeviceId{1});
  TaskGraph graph(kernels_, program);
  EXPECT_EQ(graph.node(0).pinned_device, hw::DeviceId{1});
}

TEST_F(TaskGraphTest, UnknownKernelRejected) {
  Program program;
  program.submit(99, 0, 100);
  EXPECT_THROW(TaskGraph(kernels_, program), InvalidArgument);
}

TEST_F(TaskGraphTest, CheckAcyclicPasses) {
  Program program;
  program.submit(0, 0, 100).submit(1, 0, 100).taskwait().submit(2, 0, 50);
  TaskGraph graph(kernels_, program);
  EXPECT_NO_THROW(graph.check_acyclic());
}

TEST(ProgramBuilder, SubmitChunkedCoversRangeExactly) {
  Program program;
  program.submit_chunked(0, 0, 10, 3);
  ASSERT_EQ(program.task_count(), 3u);
  std::int64_t covered = 0;
  std::int64_t expected_begin = 0;
  for (const auto& op : program.ops()) {
    EXPECT_EQ(op.submit.begin, expected_begin);
    expected_begin = op.submit.end;
    covered += op.submit.items();
  }
  EXPECT_EQ(covered, 10);
}

TEST(ProgramBuilder, EmptySubmitIsDropped) {
  Program program;
  program.submit(0, 5, 5);
  EXPECT_EQ(program.task_count(), 0u);
}

TEST(ProgramBuilder, InvertedRangeRejected) {
  Program program;
  EXPECT_THROW(program.submit(0, 10, 5), InvalidArgument);
}

TEST(ProgramBuilder, TaskwaitCounted) {
  Program program;
  program.submit(0, 0, 1).taskwait().taskwait();
  EXPECT_EQ(program.taskwait_count(), 2u);
}

}  // namespace
}  // namespace hetsched::rt
