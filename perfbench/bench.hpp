#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "common/json.hpp"
#include "spans.hpp"
#include "strategies/strategy_runner.hpp"
#include "sweep/sweep.hpp"

/// Shared types of the benchmark's workload runners.
namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for stores and the daemon (inside the checkout).
  std::string work_dir = ".bench_work";
  /// The daemon binary (serve_zipf).
  std::string cli;
  /// Where the traced run writes its spans (empty = not written).
  std::string spans_out;
};

/// Sweep engine job count, and thread count of the benchmark's own
/// in-process work (fixed, recorded in the settings).
inline constexpr unsigned kJobs = 4;

struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// name -> (value, unit)
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::vector<std::string> mismatches;
  /// What the numbers depend on (compare refuses differing settings).
  hetsched::json::Value settings{hetsched::json::Value::Object{}};
  /// Supporting counts that are not metrics (pass count, sample sizes).
  hetsched::json::Value detail{hetsched::json::Value::Object{}};

  void add(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void mismatch(const std::string& what) {
    correct = false;
    if (mismatches.size() < 20) mismatches.push_back(what);
  }
};

Result run_sweep_workload(const Options& options);
Result run_serve_workload(const Options& options);

/// The matchmaker's own accuracy (sweep_bench.cpp).
///
/// Mean regret (%) of the matchmaker's Table I pick against the best
/// simulated partitioning strategy, over the fault-free cells (scenarios
/// equal but for the strategy) of `outcomes`. Only strategies a cell ran
/// are candidates. `groups` receives the number of cells scored.
double match_regret_pct(
    const std::vector<std::vector<hetsched::sweep::ScenarioOutcome>>& outcomes,
    SpanRecorder* recorder, std::int64_t& groups);

/// Mean |Glinda predicted - simulated| / simulated (%) of SP-Single over
/// the distinct fault-free SK-One cells among `cells`. Where `swept` holds
/// that SP-Single scenario, its simulated time must be equal (an output
/// check recorded in `result`).
double glinda_error_pct(
    const std::vector<hetsched::sweep::Scenario>& cells,
    const std::vector<std::vector<hetsched::sweep::ScenarioOutcome>>& swept,
    Result& result, std::int64_t& scored);

/// Glinda's profiling step and solve on `app`, each in a span.
void replay_glinda(SpanRecorder* recorder, hetsched::apps::Application& app,
                   const hetsched::strategies::StrategyOptions& options);

/// Per-name span statistics of a traced run.
struct SpanSummary {
  std::int64_t calls = 0;
  std::vector<double> us;       ///< durations, microseconds
  std::vector<double> self_us;  ///< self times, microseconds
  double total_ns = 0.0;
  std::vector<double> a;  ///< attribute a of every span
  double a_total = 0.0;
  std::vector<double> b;  ///< attribute b of every span
};

std::map<std::string, SpanSummary> summarize_spans(
    const std::vector<Span>& spans);

/// Checks the spans, writes them to options.spans_out, and records the
/// trace.* metrics; a malformed span set makes the run incorrect.
void finish_trace(const Options& options, const SpanRecorder& recorder,
                  Result& result,
                  std::map<std::string, SpanSummary>& summary);

}  // namespace perfbench
