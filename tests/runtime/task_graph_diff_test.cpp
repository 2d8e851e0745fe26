#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "check/engine.hpp"
#include "check/gen.hpp"
#include "common/rng.hpp"
#include "hw/platform.hpp"
#include "runtime/task_graph.hpp"
#include "sweep/sweep.hpp"
#include "tests/runtime/reference_task_graph.hpp"

/// Task-graph differential suite (ctest -L graph): the near-linear builder
/// must produce exactly the graph of the reference (original quadratic)
/// builder — node fields, successor lists in order, predecessor counts,
/// edge counts and write-back flags — on every graph the fuzz corpus
/// builds, on the six paper apps at fine and coarse grain, and on random
/// programs mixing overlapping accesses, host ops and taskwaits.
namespace hetsched::rt {
namespace {

using testing::build_reference_graph;
using testing::first_difference;

std::string diff_against_reference(const std::vector<KernelDef>& kernels,
                                   const Program& program) {
  const TaskGraph graph(kernels, program);
  return first_difference(graph, build_reference_graph(kernels, program));
}

TEST(TaskGraphDiff, PaperAppsMatchReferenceAtEveryGrain) {
  const hw::PlatformSpec platform = hw::make_reference_platform();
  for (const apps::PaperApp id : apps::all_paper_apps()) {
    const auto app =
        apps::make_paper_app(id, platform, apps::paper_config(id));
    const std::vector<KernelDef>& kernels = app->executor().kernels();
    for (const int chunks : {12, 48, 384, 1536}) {
      for (const bool sync : {false, true}) {
        const Program program = app->build_program(
            [&app, chunks](Program& p, std::size_t index, KernelId kernel) {
              p.submit_chunked(kernel, 0, app->items_of(index), chunks);
            },
            sync);
        EXPECT_EQ(diff_against_reference(kernels, program), "")
            << apps::paper_app_id(id) << " chunks=" << chunks
            << " sync=" << sync;
      }
    }
  }
}

/// Compares every graph built while installed against the reference.
class ObservedBuilds {
 public:
  static void observe(const std::vector<KernelDef>& kernels,
                      const Program& program, const TaskGraph& graph) {
    const std::string diff =
        first_difference(graph, build_reference_graph(kernels, program));
    builds_.fetch_add(1);
    if (diff.empty()) return;
    std::lock_guard<std::mutex> lock(mutex_);
    if (first_mismatch_.empty()) first_mismatch_ = diff;
    ++mismatches_;
  }

  static inline std::atomic<std::size_t> builds_{0};
  static inline std::mutex mutex_;
  static inline std::string first_mismatch_;
  static inline std::size_t mismatches_ = 0;
};

TEST(TaskGraphDiff, EveryCorpusBuildMatchesReference) {
  std::ifstream in(HS_GRAPH_CORPUS);
  ASSERT_TRUE(in) << "cannot open corpus " << HS_GRAPH_CORPUS;
  std::ostringstream text;
  text << in.rdbuf();
  const std::vector<std::uint64_t> seeds = check::parse_corpus(text.str());
  ASSERT_FALSE(seeds.empty());

  std::vector<sweep::Scenario> grid;
  for (const std::uint64_t seed : seeds)
    grid.push_back(check::generate_case(seed).scenario);

  sweep::SweepOptions options;
  options.parallel = false;
  options.use_cache = false;
  TaskGraph::set_build_observer(&ObservedBuilds::observe);
  const sweep::SweepRun run = sweep::SweepEngine(options).run(grid);
  TaskGraph::set_build_observer(nullptr);

  EXPECT_EQ(run.outcomes.size(), grid.size());
  // Every scenario builds graphs (strategy runs, Glinda probes).
  EXPECT_GE(ObservedBuilds::builds_.load(), grid.size());
  EXPECT_EQ(ObservedBuilds::mismatches_, 0u)
      << "first mismatch: " << ObservedBuilds::first_mismatch_;
}

mem::BufferId random_buffer(Rng& rng) {
  return static_cast<mem::BufferId>(rng.uniform_int(0, 2));
}

mem::AccessMode random_mode(Rng& rng) {
  return static_cast<mem::AccessMode>(rng.uniform_int(0, 2));
}

/// A kernel with one to three accesses over three buffers, each of a random
/// mode and shape: the item range itself, a halo'd range, a prefix, the
/// whole buffer, or a half-scaled range (empty for one-item tasks).
KernelDef random_kernel(Rng& rng, int index, std::int64_t items) {
  const int accesses = static_cast<int>(rng.uniform_int(1, 3));
  std::vector<std::pair<mem::BufferId, int>> shapes;
  std::vector<mem::AccessMode> modes;
  for (int a = 0; a < accesses; ++a) {
    shapes.emplace_back(random_buffer(rng),
                        static_cast<int>(rng.uniform_int(0, 4)));
    modes.push_back(random_mode(rng));
  }
  KernelDef def;
  def.name = "k" + std::to_string(index);
  def.traits.name = def.name;
  def.accesses = [shapes, modes, items](std::int64_t begin,
                                        std::int64_t end) {
    std::vector<mem::RegionAccess> result;
    for (std::size_t a = 0; a < shapes.size(); ++a) {
      Interval range{begin, end};
      switch (shapes[a].second) {
        case 1: range = {std::max<std::int64_t>(0, begin - 2),
                         std::min(items, end + 2)};
          break;
        case 2: range = {0, end}; break;
        case 3: range = {0, items}; break;
        case 4: range = {begin / 2, end / 2}; break;
        default: break;
      }
      result.push_back({{shapes[a].first, range}, modes[a]});
    }
    return result;
  };
  return def;
}

TEST(TaskGraphDiff, RandomProgramsMatchReference) {
  Rng rng(20150901);
  for (int trial = 0; trial < 300; ++trial) {
    const std::int64_t items = rng.uniform_int(8, 64);
    std::vector<KernelDef> kernels;
    const int kernel_count = static_cast<int>(rng.uniform_int(1, 4));
    for (int k = 0; k < kernel_count; ++k)
      kernels.push_back(random_kernel(rng, k, items));

    Program program;
    const int ops = static_cast<int>(rng.uniform_int(1, 40));
    for (int op = 0; op < ops; ++op) {
      const double pick = rng.uniform();
      if (pick < 0.08) {
        program.taskwait();
      } else if (pick < 0.16) {
        const std::int64_t a = rng.uniform_int(0, items);
        const std::int64_t b = rng.uniform_int(0, items);
        const mem::Region region{random_buffer(rng),
                                 {std::min(a, b), std::max(a, b)}};
        program.host_op({{region, random_mode(rng)}});
      } else if (pick < 0.4) {
        program.submit_chunked(
            static_cast<KernelId>(rng.uniform_int(0, kernel_count - 1)), 0,
            items, static_cast<int>(rng.uniform_int(1, 8)));
      } else {
        const std::int64_t a = rng.uniform_int(0, items - 1);
        const std::int64_t b = rng.uniform_int(a + 1, items);
        program.submit(
            static_cast<KernelId>(rng.uniform_int(0, kernel_count - 1)), a, b);
      }
    }
    ASSERT_EQ(diff_against_reference(kernels, program), "")
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace hetsched::rt
