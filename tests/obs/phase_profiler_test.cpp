#include "obs/phase_profiler.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace hetsched::obs {
namespace {

TEST(PhaseProfilerTest, RecordAccumulatesPerStage) {
  PhaseProfiler profiler;
  profiler.record("solve", 2.0, 2.0);
  profiler.record("solve", 6.0, 4.0);
  profiler.record("serialize", 1.0, 1.0);

  const auto snapshot = profiler.snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  const PhaseStats& solve = snapshot.at("solve");
  EXPECT_EQ(solve.calls, 2);
  EXPECT_DOUBLE_EQ(solve.total_ms, 8.0);
  EXPECT_DOUBLE_EQ(solve.self_ms, 6.0);
  EXPECT_DOUBLE_EQ(solve.max_ms, 6.0);
  EXPECT_EQ(snapshot.at("serialize").calls, 1);
}

TEST(PhaseProfilerTest, NestedScopesAttributeSelfTime) {
  PhaseProfiler profiler;
  {
    ScopedPhase outer("outer", profiler);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      ScopedPhase inner("inner", profiler);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  const auto snapshot = profiler.snapshot();
  const PhaseStats& outer = snapshot.at("outer");
  const PhaseStats& inner = snapshot.at("inner");
  EXPECT_GT(inner.total_ms, 0.0);
  EXPECT_GE(outer.total_ms, inner.total_ms);
  // Self time is inclusive minus the children's inclusive — exactly, since
  // the child's recorded total is the same measurement the parent
  // subtracts. This is what makes total_ms across stages non-additive but
  // self_ms additive ("where did the wall clock go").
  EXPECT_NEAR(outer.self_ms, outer.total_ms - inner.total_ms, 1e-9);
  EXPECT_DOUBLE_EQ(inner.self_ms, inner.total_ms);
}

TEST(PhaseProfilerTest, SequentialScopesDoNotNest) {
  PhaseProfiler profiler;
  {
    ScopedPhase first("first", profiler);
  }
  {
    ScopedPhase second("second", profiler);
  }
  const auto snapshot = profiler.snapshot();
  EXPECT_DOUBLE_EQ(snapshot.at("first").self_ms,
                   snapshot.at("first").total_ms);
  EXPECT_DOUBLE_EQ(snapshot.at("second").self_ms,
                   snapshot.at("second").total_ms);
}

TEST(PhaseProfilerTest, NestingIsPerThread) {
  PhaseProfiler profiler;
  {
    ScopedPhase outer("outer", profiler);
    // A phase on another thread is a sibling, not a child: it must not
    // subtract from this thread's open phase.
    std::thread worker([&profiler] {
      ScopedPhase other("other-thread", profiler);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    });
    worker.join();
  }
  const auto snapshot = profiler.snapshot();
  const PhaseStats& outer = snapshot.at("outer");
  EXPECT_DOUBLE_EQ(outer.self_ms, outer.total_ms);
  EXPECT_GT(snapshot.at("other-thread").total_ms, 0.0);
}

TEST(PhaseProfilerTest, GlobalProfilerIsAlwaysOn) {
  // The process-global instance needs no enable switch; the serve daemon's
  // /metrics reads it directly.
  const std::size_t before = phase_profiler().snapshot().size();
  {
    ScopedPhase phase("phase-profiler-test-stage");
  }
  const auto snapshot = phase_profiler().snapshot();
  EXPECT_GE(snapshot.size(), before);
  EXPECT_GE(snapshot.at("phase-profiler-test-stage").calls, 1);
}

}  // namespace
}  // namespace hetsched::obs
