#include "runtime/task_graph.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <utility>

#include "common/error.hpp"
#include "common/range_map.hpp"

namespace hetsched::rt {

namespace {

std::atomic<TaskGraph::BuildObserver> g_build_observer{nullptr};

/// The readers of one buffer since each byte's last write (the WAR set),
/// indexed by byte range: disjoint pieces, each listing the readers live on
/// all of it. A write collects and drops the pieces it overlaps; a read
/// joins every piece in its range, after splitting the pieces that straddle
/// its ends and filling its gaps. Lists are linked through one pooled
/// vector with a free list, so joining a piece never allocates per reader.
class ReaderSet {
 public:
  void clear() {
    pieces_.clear();
    pool_.clear();
    free_ = kNil;
  }

  void add(Interval range, TaskId reader) {
    auto it = split(range.begin);
    for (std::int64_t at = range.begin; at < range.end; ++it) {
      if (it == pieces_.end() || it->first > at) {  // a gap: no reader yet
        const std::int64_t end =
            it == pieces_.end() ? range.end : std::min(it->first, range.end);
        it = pieces_.emplace_hint(it, at, Piece{end, kNil});
      } else if (it->second.end > range.end) {
        cut(it, range.end);
      }
      Piece& piece = it->second;
      if (piece.head == kNil || pool_[piece.head].reader != reader)
        piece.head = push(reader, piece.head);
      at = piece.end;
    }
  }

  /// Appends every reader with a live byte in `range` to `out` (possibly
  /// more than once) and forgets `range` for all of them.
  void take(Interval range, std::vector<TaskId>& out) {
    for (auto it = split(range.begin);
         it != pieces_.end() && it->first < range.end;
         it = pieces_.erase(it)) {
      if (it->second.end > range.end) cut(it, range.end);
      for (std::uint32_t e = it->second.head; e != kNil;) {
        out.push_back(pool_[e].reader);
        e = release(e);
      }
    }
  }

 private:
  static constexpr std::uint32_t kNil = UINT32_MAX;
  struct Entry {
    TaskId reader;
    std::uint32_t next;
  };
  struct Piece {
    std::int64_t end;
    std::uint32_t head;  ///< its readers, linked through pool_
  };
  using Iterator = std::map<std::int64_t, Piece>::iterator;

  /// Cuts the piece straddling `at`, if any; returns the first piece
  /// starting at or after `at`.
  Iterator split(std::int64_t at) {
    const auto it = pieces_.lower_bound(at);
    if (it == pieces_.begin() || std::prev(it)->second.end <= at) return it;
    return cut(std::prev(it), at);
  }

  /// Cuts piece `it` in two at `at`, inside it; both halves keep its
  /// readers. Returns the right half.
  Iterator cut(Iterator it, std::int64_t at) {
    const Piece right{it->second.end, copy(it->second.head)};
    it->second.end = at;
    return pieces_.emplace_hint(std::next(it), at, right);
  }

  std::uint32_t push(TaskId reader, std::uint32_t next) {
    std::uint32_t e = free_;
    if (e != kNil) {
      free_ = pool_[e].next;
      pool_[e] = {reader, next};
    } else {
      e = static_cast<std::uint32_t>(pool_.size());
      pool_.push_back({reader, next});
    }
    return e;
  }

  /// Returns entry `e` to the free list; yields the entry after it.
  std::uint32_t release(std::uint32_t e) {
    const std::uint32_t next = pool_[e].next;
    pool_[e].next = free_;
    free_ = e;
    return next;
  }

  /// A new list holding the readers of list `e` (in reverse order).
  std::uint32_t copy(std::uint32_t e) {
    std::uint32_t head = kNil;
    for (; e != kNil; e = pool_[e].next) head = push(pool_[e].reader, head);
    return head;
  }

  std::map<std::int64_t, Piece> pieces_;  ///< begin -> piece
  std::vector<Entry> pool_;
  std::uint32_t free_ = kNil;  ///< released pool entries, linked by next
};

/// The forward sweep's state for one buffer, reset at each barrier.
struct BufferState {
  RangeMap<TaskId> last_writer;  ///< the last task to write each byte
  ReaderSet readers;

  void clear() {
    last_writer.clear();
    readers.clear();
  }
};

/// Build state, kept per thread and reset at the start of each build so its
/// capacity is reused: most graphs are small (Glinda probes, 12-48-chunk
/// scenarios) and would otherwise spend much of their build allocating it.
struct Scratch {
  /// Indexed by buffer id: ids are dense (the coherence directory numbers
  /// them from 0).
  std::vector<BufferState> buffers;
  std::vector<RangeMap<TaskId>> next_toucher;
  std::vector<TaskId> since_barrier;
  std::vector<TaskId> deps;
};

thread_local Scratch t_scratch;

/// Builds with more accesses than this drop the scratch afterwards instead
/// of pinning a large graph's memory to the thread.
constexpr std::size_t kRetainedAccesses = std::size_t{1} << 14;

/// Fills every non-barrier node's writeback_eligible flags: a written
/// access is eligible when the first later node touching an overlapping
/// range is a host op, or when there is none (a program-tail output).
/// Barriers are not touchers and reset nothing: a kernel consumer past a
/// taskwait still keeps the data resident (the barrier flushes it
/// synchronously instead). One reverse sweep assigns each node's accesses
/// to its buffer's next-toucher map; the marks arrive in decreasing task
/// order, so a range's first later toucher is the smallest value the map
/// holds over it.
///
/// The maps are keyed on negated coordinates: a byte range [begin, end) is
/// stored as [-end, -begin). Chunked kernels touch ascending ranges in
/// ascending task order, so the reverse sweep meets them in descending
/// order; negated, each mark lands past the map's tail and is an append
/// rather than an insert at the front of the flat span vector. Negation
/// maps overlapping ranges to overlapping ranges, so the answer is the
/// same.
void analyze_writeback(std::vector<TaskNode>& nodes,
                       std::vector<RangeMap<TaskId>>& next_toucher) {
  constexpr TaskId kNone = SIZE_MAX;
  const auto mirrored = [](Interval range) {
    return Interval{-range.end, -range.begin};
  };
  for (RangeMap<TaskId>& map : next_toucher) map.clear();
  for (TaskId id = nodes.size(); id-- > 0;) {
    TaskNode& node = nodes[id];
    if (node.is_barrier) continue;
    const std::vector<mem::RegionAccess>& accesses = node.accesses;
    node.writeback_eligible.assign(accesses.size(), false);
    for (std::size_t a = 0; a < accesses.size(); ++a) {
      const mem::Region& region = accesses[a].region;
      if (!accesses[a].writes() || region.empty()) continue;
      TaskId next = kNone;
      next_toucher[region.buffer].for_each_overlapping(
          mirrored(region.range),
          [&next](Interval, TaskId toucher) { next = std::min(next, toucher); });
      // Host op next, or nothing at all: eager write-back overlapping the
      // other devices' remaining compute. Kernel next: the data stays
      // resident for its consumer.
      node.writeback_eligible[a] = next == kNone || nodes[next].is_host_op;
    }
    for (const mem::RegionAccess& access : accesses)
      if (!access.region.empty())
        next_toucher[access.region.buffer].assign(
            mirrored(access.region.range), id);
  }
}

}  // namespace

void TaskGraph::set_build_observer(BuildObserver observer) {
  g_build_observer.store(observer, std::memory_order_release);
}

TaskGraph::TaskGraph(const std::vector<KernelDef>& kernels,
                     const Program& program) {
  Scratch& scratch = t_scratch;
  std::vector<BufferState>& buffers = scratch.buffers;
  std::vector<TaskId>& since_barrier = scratch.since_barrier;
  std::vector<TaskId>& deps = scratch.deps;
  for (BufferState& buffer : buffers) buffer.clear();
  since_barrier.clear();
  std::optional<TaskId> last_barrier;
  std::size_t access_count = 0;
  const auto collect = [&deps](Interval, TaskId writer) {
    deps.push_back(writer);
  };

  nodes_.reserve(program.ops().size());
  for (const ProgramOp& op : program.ops()) {
    const TaskId id = nodes_.size();
    TaskNode node;
    node.id = id;

    if (op.kind == ProgramOp::Kind::kTaskwait) {
      node.is_barrier = true;
      nodes_.push_back(std::move(node));
      // The barrier waits for everything since the previous barrier (earlier
      // work is covered transitively through that barrier).
      if (last_barrier) add_edge(*last_barrier, id);
      for (TaskId dep : since_barrier) add_edge(dep, id);
      last_barrier = id;
      since_barrier.clear();
      // A barrier flushes all device copies; subsequent tasks re-source data
      // from the host, and their ordering against pre-barrier tasks flows
      // through the barrier edge — so reset the data-dependency trackers.
      for (BufferState& buffer : buffers) buffer.clear();
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
    access_count += node.accesses.size();
    nodes_.push_back(std::move(node));

    deps.clear();
    if (last_barrier) deps.push_back(*last_barrier);
    const std::vector<mem::RegionAccess>& accesses = nodes_[id].accesses;
    for (const mem::RegionAccess& access : accesses) {
      if (access.region.empty()) continue;
      if (access.region.buffer >= buffers.size())
        buffers.resize(access.region.buffer + 1);
      BufferState& buffer = buffers[access.region.buffer];
      const Interval range = access.region.range;
      // RAW (reads) and WAW (writes) on every overlapping earlier writer.
      buffer.last_writer.for_each_overlapping(range, collect);
      // WAR on readers since the last write; the written range is forgotten
      // so they don't produce edges again.
      if (access.writes()) buffer.readers.take(range, deps);
    }

    // Commit this task's effects after scanning all accesses, so a task
    // never depends on itself through its own inout regions.
    for (const mem::RegionAccess& access : accesses) {
      if (access.region.empty()) continue;
      BufferState& buffer = buffers[access.region.buffer];
      const Interval range = access.region.range;
      if (access.writes()) buffer.last_writer.assign(range, id);
      if (access.reads()) buffer.readers.add(range, id);
    }

    // Ascending and distinct: the successor order the executor relies on.
    std::sort(deps.begin(), deps.end());
    deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
    for (TaskId dep : deps) add_edge(dep, id);
    since_barrier.push_back(id);
  }

  scratch.next_toucher.resize(buffers.size());
  analyze_writeback(nodes_, scratch.next_toucher);
  if (access_count > kRetainedAccesses) scratch = Scratch{};
  check_acyclic();
  if (const BuildObserver observer =
          g_build_observer.load(std::memory_order_acquire))
    observer(kernels, program, *this);
}

void TaskGraph::add_edge(TaskId from, TaskId to) {
  HS_ASSERT_MSG(from < to, "dependency edge " << from << " -> " << to
                                              << " not forward in submission "
                                                 "order");
  nodes_[from].successors.push_back(to);
  ++nodes_[to].predecessor_count;
  ++edge_count_;
}

std::vector<TaskId> TaskGraph::initial_ready() const {
  std::vector<TaskId> ready;
  for (const TaskNode& node : nodes_)
    if (node.predecessor_count == 0) ready.push_back(node.id);
  return ready;
}

void TaskGraph::check_acyclic() const {
  for (const TaskNode& node : nodes_)
    for (TaskId succ : node.successors)
      HS_ASSERT_MSG(succ > node.id, "backward edge " << node.id << " -> "
                                                     << succ);
}

}  // namespace hetsched::rt
