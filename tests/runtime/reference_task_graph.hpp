#pragma once

#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/range_map.hpp"
#include "runtime/task_graph.hpp"

/// Reference task-graph builder: the original quadratic construction of
/// rt::TaskGraph, kept verbatim in semantics as the oracle the differential
/// test (ctest -L graph) holds the near-linear builder against.
///   - WAR: every write rescans the buffer's whole list of reader records.
///   - Write-back: every written access scans forward over all later nodes
///     for the first one touching an overlapping range.
namespace hetsched::rt::testing {

struct ReferenceGraph {
  std::vector<TaskNode> nodes;
  std::size_t edge_count = 0;
};

inline ReferenceGraph build_reference_graph(
    const std::vector<KernelDef>& kernels, const Program& program) {
  struct BufferTracker {
    RangeMap<TaskId> last_writer;
    std::vector<std::pair<Interval, TaskId>> readers;
  };
  ReferenceGraph graph;
  std::vector<TaskNode>& nodes = graph.nodes;
  const auto add_edge = [&graph](TaskId from, TaskId to) {
    HS_ASSERT(from < to);
    graph.nodes[from].successors.push_back(to);
    ++graph.nodes[to].predecessor_count;
    ++graph.edge_count;
  };
  const auto writers_overlapping = [](const RangeMap<TaskId>& map,
                                      Interval range, std::set<TaskId>& out) {
    map.for_each_overlapping(range,
                             [&out](Interval, TaskId id) { out.insert(id); });
  };

  std::map<mem::BufferId, BufferTracker> trackers;
  std::optional<TaskId> last_barrier;
  std::vector<TaskId> since_barrier;

  for (const ProgramOp& op : program.ops()) {
    const TaskId id = nodes.size();
    TaskNode node;
    node.id = id;

    if (op.kind == ProgramOp::Kind::kTaskwait) {
      node.is_barrier = true;
      nodes.push_back(std::move(node));
      std::set<TaskId> deps(since_barrier.begin(), since_barrier.end());
      if (last_barrier) deps.insert(*last_barrier);
      for (TaskId dep : deps) add_edge(dep, id);
      last_barrier = id;
      since_barrier.clear();
      trackers.clear();
      continue;
    }

    if (op.kind == ProgramOp::Kind::kHostOp) {
      node.is_host_op = true;
      node.host_body = op.host.body;
      node.accesses = op.host.accesses;
    } else {
      const SubmitOp& submit = op.submit;
      HS_REQUIRE(submit.kernel < kernels.size(),
                 "program references unknown kernel id " << submit.kernel);
      node.kernel = submit.kernel;
      node.begin = submit.begin;
      node.end = submit.end;
      node.pinned_device = submit.pinned_device;
      node.accesses = kernels[submit.kernel].accesses(submit.begin, submit.end);
    }
    nodes.push_back(std::move(node));

    std::set<TaskId> deps;
    if (last_barrier) deps.insert(*last_barrier);
    for (const mem::RegionAccess& access : nodes[id].accesses) {
      if (access.region.empty()) continue;
      BufferTracker& tracker = trackers[access.region.buffer];
      const Interval range = access.region.range;
      if (access.reads()) writers_overlapping(tracker.last_writer, range, deps);
      if (access.writes()) {
        writers_overlapping(tracker.last_writer, range, deps);
        std::vector<std::pair<Interval, TaskId>> kept;
        for (auto& [read_range, reader] : tracker.readers) {
          if (read_range.overlaps(range)) {
            deps.insert(reader);
            if (read_range.begin < range.begin)
              kept.emplace_back(Interval{read_range.begin, range.begin},
                                reader);
            if (read_range.end > range.end)
              kept.emplace_back(Interval{range.end, read_range.end}, reader);
          } else {
            kept.emplace_back(read_range, reader);
          }
        }
        tracker.readers = std::move(kept);
      }
    }
    for (const mem::RegionAccess& access : nodes[id].accesses) {
      if (access.region.empty()) continue;
      BufferTracker& tracker = trackers[access.region.buffer];
      const Interval range = access.region.range;
      if (access.writes()) tracker.last_writer.assign(range, id);
      if (access.reads()) tracker.readers.emplace_back(range, id);
    }
    deps.erase(id);
    for (TaskId dep : deps) add_edge(dep, id);
    since_barrier.push_back(id);
  }

  for (TaskNode& node : nodes) {
    if (node.is_barrier) continue;
    node.writeback_eligible.assign(node.accesses.size(), false);
    for (std::size_t a = 0; a < node.accesses.size(); ++a) {
      const mem::RegionAccess& access = node.accesses[a];
      if (!access.writes() || access.region.empty()) continue;
      bool host_side_next = true;  // nothing later: program-tail output
      for (TaskId later = node.id + 1; later < nodes.size(); ++later) {
        const TaskNode& other = nodes[later];
        if (other.is_barrier) continue;
        bool overlaps = false;
        for (const mem::RegionAccess& theirs : other.accesses) {
          if (theirs.region.buffer == access.region.buffer &&
              theirs.region.range.overlaps(access.region.range)) {
            overlaps = true;
            break;
          }
        }
        if (overlaps) {
          host_side_next = other.is_host_op;
          break;
        }
      }
      node.writeback_eligible[a] = host_side_next;
    }
  }
  return graph;
}

/// Empty when `graph` matches `reference` in every node field, successor
/// list (in order), predecessor count, write-back flag and the edge count;
/// otherwise a description of the first difference.
inline std::string first_difference(const TaskGraph& graph,
                                    const ReferenceGraph& reference) {
  std::ostringstream out;
  if (graph.size() != reference.nodes.size()) {
    out << "size " << graph.size() << " vs " << reference.nodes.size();
    return out.str();
  }
  if (graph.edge_count() != reference.edge_count) {
    out << "edge_count " << graph.edge_count() << " vs "
        << reference.edge_count;
    return out.str();
  }
  for (TaskId id = 0; id < graph.size(); ++id) {
    const TaskNode& a = graph.node(id);
    const TaskNode& b = reference.nodes[id];
    const auto differs = [&out, id](const char* field) {
      out << "node " << id << ": " << field;
      return out.str();
    };
    if (a.id != b.id) return differs("id");
    if (a.is_barrier != b.is_barrier) return differs("is_barrier");
    if (a.is_host_op != b.is_host_op) return differs("is_host_op");
    if (static_cast<bool>(a.host_body) != static_cast<bool>(b.host_body))
      return differs("host_body");
    if (a.kernel != b.kernel) return differs("kernel");
    if (a.begin != b.begin || a.end != b.end) return differs("item range");
    if (a.pinned_device != b.pinned_device) return differs("pinned_device");
    if (a.accesses.size() != b.accesses.size()) return differs("accesses");
    for (std::size_t i = 0; i < a.accesses.size(); ++i)
      if (a.accesses[i].region != b.accesses[i].region ||
          a.accesses[i].mode != b.accesses[i].mode)
        return differs("accesses");
    if (a.successors != b.successors) return differs("successors");
    if (a.predecessor_count != b.predecessor_count)
      return differs("predecessor_count");
    if (a.writeback_eligible != b.writeback_eligible)
      return differs("writeback_eligible");
  }
  return "";
}

}  // namespace hetsched::rt::testing
