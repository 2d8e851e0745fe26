#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mem/region.hpp"
#include "runtime/kernel.hpp"
#include "runtime/program.hpp"

/// Task-instance dependency graph.
///
/// Built from a Program's submission stream by region-overlap analysis, the
/// way the OmpSs runtime derives its task dependency graph from `in`/`out`/
/// `inout` clauses:
///   - RAW: a reader depends on every earlier writer of an overlapping range
///   - WAW: a writer depends on every earlier writer of an overlapping range
///   - WAR: a writer depends on every earlier reader-since-last-write of an
///          overlapping range
/// `taskwait` inserts a barrier node: it depends on everything submitted
/// since the previous barrier, and everything after depends on it.
///
/// Per buffer, the last writers (and, for write-back eligibility, in one
/// reverse sweep, the first later touchers) live in RangeMaps and the
/// readers since the last write in a set indexed by byte range, so the
/// build is near-linear in the accesses plus the edges for the paper apps
/// (docs/runtime-semantics.md).
namespace hetsched::rt {

using TaskId = std::size_t;

struct TaskNode {
  TaskId id = 0;
  bool is_barrier = false;
  bool is_host_op = false;
  std::function<void()> host_body;  ///< valid for host-op nodes

  // Valid for kernel-task nodes:
  KernelId kernel = 0;
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::optional<hw::DeviceId> pinned_device;
  std::vector<mem::RegionAccess> accesses;

  std::vector<TaskId> successors;
  std::size_t predecessor_count = 0;

  /// Parallel to `accesses`: true for a write access whose *next* conflicting
  /// use in program order is host-side (a host op or a barrier) rather than
  /// another kernel task. Such regions are final outputs as far as the
  /// devices are concerned; the executor writes them back to the host as
  /// soon as the task completes, overlapping the copy with remaining
  /// compute (the asynchronous write-back of OmpSs-era runtimes). Regions
  /// that a later kernel will read or rewrite stay resident instead.
  std::vector<bool> writeback_eligible;

  std::int64_t items() const { return end - begin; }
};

class TaskGraph {
 public:
  /// `kernels[k]` must be the definition for KernelId k referenced by the
  /// program. Throws InvalidArgument on out-of-range kernel ids.
  TaskGraph(const std::vector<KernelDef>& kernels, const Program& program);

  const std::vector<TaskNode>& nodes() const { return nodes_; }
  const TaskNode& node(TaskId id) const { return nodes_[id]; }
  std::size_t size() const { return nodes_.size(); }

  /// Tasks with no predecessors, in submission order.
  std::vector<TaskId> initial_ready() const;

  std::size_t edge_count() const { return edge_count_; }

  /// Structural invariant: every edge points forward in submission order
  /// (which guarantees acyclicity). Throws InternalError on violation.
  void check_acyclic() const;

  /// While set (non-null), called with the inputs and result of every graph
  /// built, from the building thread. A test seam: the differential test
  /// replays each build of a whole scenario through a reference builder.
  using BuildObserver = void (*)(const std::vector<KernelDef>& kernels,
                                 const Program& program,
                                 const TaskGraph& graph);
  static void set_build_observer(BuildObserver observer);

 private:
  void add_edge(TaskId from, TaskId to);

  std::vector<TaskNode> nodes_;
  std::size_t edge_count_ = 0;
};

}  // namespace hetsched::rt
