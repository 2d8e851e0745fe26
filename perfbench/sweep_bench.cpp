// sweep_mixed and sweep_finegrain: timed SweepEngine::run passes over seeded
// scenario populations, output checks against serial computes, the
// matchmaker's own accuracy, and (traced runs) a per-layer replay.

#include <chrono>
#include <cmath>
#include <filesystem>
#include <limits>
#include <optional>
#include <set>

#include "analyzer/matchmaker.hpp"
#include "apps/registry.hpp"
#include "bench.hpp"
#include "common/error.hpp"
#include "faults/fault_plan.hpp"
#include "glinda/multi_device.hpp"
#include "glinda/partition_model.hpp"
#include "glinda/profile.hpp"
#include "hw/platform.hpp"
#include "obs/phase_profiler.hpp"
#include "runtime/schedulers/breadth_first.hpp"
#include "runtime/task_graph.hpp"
#include "stats.hpp"
#include "strategies/strategy_runner.hpp"
#include "sweep/sweep.hpp"
#include "workload.hpp"

namespace perfbench {

namespace hs = hetsched;
namespace fs = std::filesystem;
using hs::analyzer::StrategyKind;
using hs::sweep::Scenario;
using hs::sweep::ScenarioOutcome;
using Scope = SpanRecorder::Scope;
using Clock = std::chrono::steady_clock;

namespace {

/// Timed passes always run at least this many, whatever --seconds says:
/// the model metrics and sim.events come from exactly these passes, so
/// they are a function of the seed alone.
constexpr int kModelPasses = 3;
/// Chunk count of sweep_finegrain's set-up warm-up.
constexpr int kWarmupChunks = 128;
/// Pass definitions whose SK-One cells feed glinda_error_pct.
constexpr int kGlindaPasses = 8;
/// Outcomes per pass re-computed serially after the window.
std::size_t checks_per_pass(const Options& options) {
  return options.workload == "sweep_mixed" ? 12 : 3;
}

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

bool is_mixed(const Options& options) {
  return options.workload == "sweep_mixed";
}

SweepPass make_pass(const Options& options, int index) {
  return is_mixed(options) ? mixed_pass(options.seed, index)
                           : finegrain_pass(options.seed, index);
}

/// What a pass's set-up runs through the engine: the pre-filled half of a
/// sweep_mixed pass (cache on), or a warm-up of a sweep_finegrain pass's
/// cells at kWarmupChunks (cache off; the engine dedups repeated cells).
std::vector<Scenario> setup_scenarios(const Options& options,
                                      const SweepPass& pass) {
  std::vector<Scenario> setup;
  for (std::size_t i = 0; i < pass.scenarios.size(); ++i) {
    if (is_mixed(options)) {
      if (pass.prefilled[i]) setup.push_back(pass.scenarios[i]);
    } else {
      Scenario warm = pass.scenarios[i];
      warm.task_count = kWarmupChunks;
      setup.push_back(warm);
    }
  }
  return setup;
}

const hs::analyzer::AppDescriptor& descriptor_of(hs::apps::PaperApp app) {
  static std::map<hs::apps::PaperApp, hs::analyzer::AppDescriptor> cache;
  auto it = cache.find(app);
  if (it == cache.end()) {
    it = cache
             .emplace(app, hs::apps::make_paper_app(
                               app, hs::hw::platform_by_name("reference"))
                               ->descriptor())
             .first;
  }
  return it->second;
}

/// The strategies whose program is the app's chunked program, which the
/// traced replay can rebuild outside StrategyRunner::run.
bool is_dynamic(StrategyKind kind) {
  return kind == StrategyKind::kDPDep || kind == StrategyKind::kDPPerf;
}

bool is_static(StrategyKind kind) {
  return kind == StrategyKind::kSPSingle || kind == StrategyKind::kSPUnified ||
         kind == StrategyKind::kSPVaried;
}

hs::strategies::StrategyOptions strategy_options(const Scenario& scenario,
                                                 double baseline_ms,
                                                 std::size_t devices) {
  hs::strategies::StrategyOptions options;
  options.sync_between_kernels = scenario.sync;
  options.task_count = scenario.task_count;
  if (!scenario.fault_plan.empty()) {
    const hs::SimTime horizon =
        std::max<hs::SimTime>(1, std::llround(baseline_ms * 1e6));
    options.fault_plan = hs::faults::make_named_plan(
        scenario.fault_plan, horizon, scenario.fault_seed, devices);
  }
  return options;
}

std::unique_ptr<hs::apps::Application> build_app(
    const Scenario& scenario, const hs::hw::PlatformSpec& platform) {
  hs::apps::Application::Config config = hs::apps::paper_config(scenario.app);
  config.costs = scenario.costs;
  return hs::apps::make_paper_app(scenario.app, platform, config);
}

}  // namespace

/// Glinda's profiling step and solve on the scenario's app, as the static
/// strategies call them (whole kernel, or the fused sequence).
void replay_glinda(SpanRecorder* recorder, hs::apps::Application& app,
                   const hs::strategies::StrategyOptions& options) {
  const hs::glinda::SampleProgramFactory factory =
      app.kernels().size() == 1 ? app.single_kernel_factory(0)
                                : app.fused_factory();
  const hs::glinda::Profiler profiler(options.profile);
  hs::rt::Executor& executor = app.executor();
  const std::size_t devices = executor.platform().device_count();
  std::vector<hs::glinda::DeviceProfile> profiles;
  hs::glinda::LinkProfile link;
  {
    Scope span(recorder, "glinda.probe");
    for (hs::hw::DeviceId d = 0; d < devices; ++d)
      profiles.push_back(
          profiler.profile_device(executor, factory, d, app.items()));
    link = profiler.profile_link(executor, factory, 1, app.items());
  }
  const double link_bps = link.bytes_per_second > 0.0
                              ? link.bytes_per_second
                              : executor.platform().link.bandwidth_gbs * 1e9;
  Scope span(recorder, "glinda.solve");
  if (devices == 2) {
    hs::glinda::KernelEstimate estimate;
    estimate.cpu = profiles[0];
    estimate.gpu = profiles[1];
    estimate.link_bytes_per_second = link_bps;
    hs::glinda::PartitionModel(options.partition).solve(estimate, app.items());
  } else {
    hs::glinda::MultiDeviceEstimate estimate;
    estimate.devices = profiles;
    estimate.link_bytes_per_second = link_bps;
    hs::glinda::solve_multi_partition(estimate, app.items(),
                                      options.partition);
  }
}

namespace {

/// The runtime layer on a DP scenario's own program (the one
/// StrategyRunner::run_dp submits): its task-graph build, and, for a
/// fault-free DP-Dep scenario, its execution under DP-Dep's breadth-first
/// scheduler.
void replay_runtime(SpanRecorder* recorder, hs::apps::Application& app,
                    const Scenario& scenario) {
  hs::rt::Program program;
  {
    Scope span(recorder, "apps.program");
    const int m = scenario.task_count;
    program = app.build_program(
        [&app, m](hs::rt::Program& p, std::size_t index, hs::rt::KernelId k) {
          p.submit_chunked(k, 0, app.items_of(index), m);
        },
        scenario.sync);
  }
  {
    Scope span(recorder, "runtime.graph");
    const hs::rt::TaskGraph graph(app.executor().kernels(), program);
    span.set_a(static_cast<std::int64_t>(graph.size()));
    span.set_b(static_cast<std::int64_t>(graph.edge_count()));
  }
  if (scenario.strategy != StrategyKind::kDPDep ||
      !scenario.fault_plan.empty())
    return;
  Scope span(recorder, "runtime.execute");
  hs::rt::BreadthFirstScheduler scheduler;
  const hs::rt::ExecutionReport report =
      app.executor().execute(program, scheduler);
  span.set_a(static_cast<std::int64_t>(report.sim_events));
}

/// Replays one scenario's path through the layers, each call wrapped in a
/// span when `recorder` is set. The engine's outcome supplies the faulted
/// scenarios' baseline and the payload bytes.
void replay_scenario(SpanRecorder* recorder, std::uint64_t unit,
                     const ScenarioOutcome& outcome,
                     const hs::sweep::ResultCache* store,
                     const hs::sweep::ResultCache* scratch) {
  const Scenario& scenario = outcome.scenario;
  Scope root(recorder, "sweep.scenario", unit);
  std::string key;
  {
    Scope span(recorder, "sweep.key");
    key = hs::sweep::scenario_key(scenario);
  }
  if (store != nullptr) {
    Scope span(recorder, "sweep.cache_load");
    const std::optional<std::string> payload = store->load(key);
    span.set_a(payload ? static_cast<std::int64_t>(payload->size()) : 0);
  }
  const hs::hw::PlatformSpec platform =
      hs::hw::platform_by_name(scenario.platform);
  std::unique_ptr<hs::apps::Application> app;
  {
    Scope span(recorder, "apps.build");
    app = build_app(scenario, platform);
  }
  const hs::strategies::StrategyOptions options = strategy_options(
      scenario, outcome.metrics.baseline_time_ms, platform.device_count());
  {
    Scope span(recorder, "strategies.run");
    // a = 1 marks the runs whose graph build is replayed below.
    span.set_a(is_dynamic(scenario.strategy) ? 1 : 0);
    // The program's own phases (executor runs, partition solves) opened
    // inside run() report their time to this enclosing phase, which gives
    // run()'s self time without instrumenting the program.
    hs::obs::PhaseProfiler local;
    {
      std::optional<hs::obs::ScopedPhase> phase;
      if (recorder != nullptr) phase.emplace("perfbench-run", local);
      hs::strategies::StrategyRunner runner(*app, options);
      runner.run(scenario.strategy);
    }
    if (recorder != nullptr) {
      const hs::obs::PhaseStats stats = local.snapshot().at("perfbench-run");
      span.set_nested_ns(
          std::llround((stats.total_ms - stats.self_ms) * 1e6));
    }
  }
  if (is_static(scenario.strategy)) replay_glinda(recorder, *app, options);
  if (is_dynamic(scenario.strategy)) replay_runtime(recorder, *app, scenario);

  std::string payload;
  {
    Scope span(recorder, "sweep.encode");
    payload = outcome.to_payload();
    span.set_a(static_cast<std::int64_t>(payload.size()));
  }
  hs::json::Value parsed;
  {
    Scope span(recorder, "common.json_parse");
    parsed = hs::json::Value::parse(payload);
    span.set_a(static_cast<std::int64_t>(payload.size()));
  }
  {
    Scope span(recorder, "common.json_dump");
    span.set_a(static_cast<std::int64_t>(parsed.dump().size()));
  }
  if (scratch != nullptr) {
    Scope span(recorder, "sweep.cache_store");
    scratch->store(key, payload);
  }
}

}  // namespace

double match_regret_pct(const std::vector<std::vector<ScenarioOutcome>>& passes,
                        SpanRecorder* recorder, std::int64_t& groups) {
  std::map<std::string, std::vector<const ScenarioOutcome*>> cells;
  for (const auto& outcomes : passes) {
    for (const ScenarioOutcome& outcome : outcomes) {
      if (!outcome.scenario.fault_plan.empty()) continue;
      cells[outcome.scenario.group() + "/m" +
            std::to_string(outcome.scenario.task_count)]
          .push_back(&outcome);
    }
  }
  std::vector<double> regrets;
  std::uint64_t unit = 0;
  for (const auto& [name, cell] : cells) {
    const Scenario& scenario = cell.front()->scenario;
    hs::analyzer::AppDescriptor descriptor = descriptor_of(scenario.app);
    if (scenario.sync && descriptor.sync == hs::analyzer::SyncReason::kNone)
      descriptor.sync = hs::analyzer::SyncReason::kHostPostProcessing;
    hs::analyzer::MatchResult match;
    {
      Scope span(recorder, "analyzer.match", ++unit);
      match = hs::analyzer::Matchmaker{}.match(descriptor);
    }
    // The pick is the first strategy of the matchmaker's ranking that the
    // cell ran and could apply.
    double best = std::numeric_limits<double>::infinity();
    std::map<StrategyKind, double> times;
    for (const ScenarioOutcome* outcome : cell) {
      if (!outcome->ok()) continue;
      const StrategyKind kind = outcome->scenario.strategy;
      times[kind] = outcome->time_ms();
      if (kind != StrategyKind::kOnlyCpu && kind != StrategyKind::kOnlyGpu)
        best = std::min(best, outcome->time_ms());
    }
    for (StrategyKind kind : match.ranking) {
      const auto it = times.find(kind);
      if (it == times.end() || !std::isfinite(best) || best <= 0.0) continue;
      regrets.push_back((it->second - best) / best);
      break;
    }
  }
  groups = static_cast<std::int64_t>(regrets.size());
  return regrets.empty() ? 0.0 : 100.0 * sum(regrets) /
                                     static_cast<double>(regrets.size());
}

namespace {

double predicted_seconds(const hs::strategies::StrategyResult& result) {
  if (result.multi_decision) return result.multi_decision->predicted_seconds;
  const hs::glinda::PartitionDecision& decision = result.decisions.at(0);
  switch (decision.config) {
    case hs::glinda::HardwareConfig::kOnlyCpu:
      return decision.predicted_cpu_seconds;
    case hs::glinda::HardwareConfig::kOnlyGpu:
      return decision.predicted_gpu_seconds;
    case hs::glinda::HardwareConfig::kPartition:
      return decision.predicted_partition_seconds;
  }
  return 0.0;
}

}  // namespace

double glinda_error_pct(const std::vector<Scenario>& cells,
                        const std::vector<std::vector<ScenarioOutcome>>& model,
                        Result& result, std::int64_t& scored) {
  std::map<std::string, double> swept;
  for (const auto& outcomes : model) {
    for (const ScenarioOutcome& outcome : outcomes) {
      if (outcome.ok() && outcome.scenario.fault_plan.empty() &&
          outcome.scenario.strategy == StrategyKind::kSPSingle)
        swept[hs::sweep::scenario_key(outcome.scenario)] = outcome.time_ms();
    }
  }
  std::set<std::string> seen;
  std::vector<double> errors;
  {
    for (Scenario scenario : cells) {
      if (!scenario.fault_plan.empty()) continue;
      if (hs::analyzer::Matchmaker{}.match(descriptor_of(scenario.app))
              .app_class != hs::analyzer::AppClass::kSKOne)
        continue;
      scenario.strategy = StrategyKind::kSPSingle;
      const std::string key = hs::sweep::scenario_key(scenario);
      if (!seen.insert(key).second) continue;
      const hs::hw::PlatformSpec platform =
          hs::hw::platform_by_name(scenario.platform);
      auto app = build_app(scenario, platform);
      hs::strategies::StrategyRunner runner(
          *app, strategy_options(scenario, 0.0, platform.device_count()));
      const hs::strategies::StrategyResult run =
          runner.run(StrategyKind::kSPSingle);
      const auto it = swept.find(key);
      if (it != swept.end() && it->second != run.time_ms())
        result.mismatch("SP-Single " + scenario.label() +
                        " simulated time differs from the sweep's");
      const double simulated = run.time_ms() / 1e3;
      if (simulated > 0.0)
        errors.push_back(std::abs(predicted_seconds(run) - simulated) /
                         simulated);
    }
  }
  scored = static_cast<std::int64_t>(errors.size());
  return errors.empty() ? 0.0
                        : 100.0 * sum(errors) /
                              static_cast<double>(errors.size());
}

Result run_sweep_workload(const Options& options) {
  Result result;
  const bool cache = is_mixed(options);
  fs::create_directories(options.work_dir);
  SpanRecorder recorder;
  SpanRecorder* traced = options.trace ? &recorder : nullptr;

  struct Check {
    Scenario scenario;
    std::string payload;
    std::int64_t sim_events = 0;
  };
  std::vector<Check> checks;
  std::vector<double> setup_s, pass_rates;
  double scenarios = 0.0, events = 0.0, timed_s = 0.0;
  std::vector<std::vector<ScenarioOutcome>> model;
  std::int64_t cache_hits = 0, cache_lookups = 0, twin_hits = 0,
               twin_lookups = 0;
  double replay_plain_s = 0.0, replay_traced_s = 0.0;
  std::uint64_t next_unit = 1'000'000;

  double window_s = 0.0;
  int passes = 0;
  for (; passes < kModelPasses || window_s < options.seconds; ++passes) {
    const SweepPass pass = make_pass(options, passes);
    const std::string dir = options.work_dir + "/store";
    hs::sweep::SweepOptions engine_options;
    engine_options.jobs = kJobs;
    engine_options.use_cache = cache;
    engine_options.cache_dir = dir;

    const Clock::time_point setup_start = Clock::now();
    const hs::sweep::SweepEngine engine(engine_options);
    engine.run(setup_scenarios(options, pass));
    setup_s.push_back(since(setup_start));

    const Clock::time_point start = Clock::now();
    const hs::sweep::SweepRun run = engine.run(pass.scenarios);
    const double wall = since(start);
    window_s += since(setup_start);

    for (const ScenarioOutcome& outcome : run.outcomes) {
      ++result.attempted;
      if (outcome.status == hs::sweep::ScenarioStatus::kFailed) {
        ++result.failed;
        result.mismatch("scenario " + outcome.scenario.label() +
                        " failed: " + outcome.error);
      }
      if (!outcome.cache_hit)
        events += static_cast<double>(outcome.metrics.sim_events);
    }
    scenarios += static_cast<double>(run.outcomes.size());
    timed_s += wall;
    pass_rates.push_back(static_cast<double>(run.outcomes.size()) / wall);
    cache_hits += static_cast<std::int64_t>(run.summary.cache_hits);
    cache_lookups += static_cast<std::int64_t>(run.summary.cache_hits +
                                               run.summary.cache_misses);
    twin_hits += static_cast<std::int64_t>(run.summary.twin_memo_hits);
    twin_lookups += static_cast<std::int64_t>(run.summary.twin_memo_hits +
                                              run.summary.twin_computes);

    Rng pick = stream_rng(options.seed, 4000 + passes);
    for (std::size_t c = 0; c < checks_per_pass(options); ++c) {
      const ScenarioOutcome& outcome =
          run.outcomes[pick.below(run.outcomes.size())];
      checks.push_back(
          {outcome.scenario, outcome.to_payload(), outcome.metrics.sim_events});
    }

    if (traced != nullptr) {
      // Per-layer replay of a seeded sample, each scenario once traced and
      // once untraced (alternating which goes first) for the overhead.
      const hs::sweep::ResultCache store(dir);
      const hs::sweep::ResultCache scratch(dir + "-replay");
      const std::size_t sample = cache ? 24 : 4;
      for (std::size_t r = 0; r < sample; ++r) {
        const ScenarioOutcome& outcome =
            run.outcomes[pick.below(run.outcomes.size())];
        if (!outcome.ok()) continue;
        const hs::sweep::ResultCache* load = cache ? &store : nullptr;
        const hs::sweep::ResultCache* save = cache ? &scratch : nullptr;
        for (int order = 0; order < 2; ++order) {
          const bool with_spans = (order == 0) == (r % 2 == 0);
          const Clock::time_point replay_start = Clock::now();
          replay_scenario(with_spans ? traced : nullptr, next_unit++, outcome,
                          load, save);
          (with_spans ? replay_traced_s : replay_plain_s) +=
              since(replay_start);
        }
      }
      fs::remove_all(dir + "-replay");
    }
    if (passes < kModelPasses) model.push_back(run.outcomes);
    // The pass's store goes, and the file system writes the churn back,
    // before the next pass's set-up: every pass starts from the same disk
    // state, and no deletion or write-back overlaps a timed window, in
    // this run or the next.
    fs::remove_all(dir);
    settle_disk(options.work_dir);
  }

  // Output checks: a seeded sample of every pass, re-computed serially
  // without cache or memo, must match byte for byte.
  hs::sweep::SweepOptions serial;
  serial.parallel = false;
  const hs::sweep::SweepEngine reference(serial);
  for (const Check& check : checks) {
    const ScenarioOutcome fresh = reference.compute(check.scenario);
    if (fresh.to_payload() != check.payload)
      result.mismatch("payload of " + check.scenario.label() + " on " +
                      check.scenario.platform +
                      " differs from a serial compute");
    else if (fresh.metrics.sim_events != check.sim_events)
      result.mismatch("sim_events of " + check.scenario.label() + " differ");
  }

  std::int64_t groups = 0, glinda_cells = 0;
  const double regret = match_regret_pct(model, traced, groups);
  std::vector<Scenario> cells;
  for (int k = 0; k < kGlindaPasses; ++k) {
    for (const Scenario& scenario : make_pass(options, k).scenarios)
      cells.push_back(scenario);
  }
  const double glinda = glinda_error_pct(cells, model, result, glinda_cells);
  double sim_events = 0.0, injected = 0.0, migrated = 0.0, abandoned = 0.0;
  for (const auto& outcomes : model) {
    for (const ScenarioOutcome& outcome : outcomes) {
      if (!outcome.cache_hit)
        sim_events += static_cast<double>(outcome.metrics.sim_events);
      injected += static_cast<double>(outcome.metrics.faults_injected);
      migrated += static_cast<double>(outcome.metrics.migrated_tasks);
      abandoned += static_cast<double>(outcome.metrics.abandoned_tasks);
    }
  }

  result.add("scenarios_per_s", scenarios / timed_s, "1/s");
  result.add("sim_events_per_s", events / timed_s, "1/s");
  // A batch sweep has no offered rate: the highest rate it sustains is its
  // throughput.
  result.add("max_rate_rps", scenarios / timed_s, "1/s");
  result.add("setup_s", median(setup_s), "s");
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
  result.add("ok_frac",
             1.0 - static_cast<double>(result.failed) /
                       static_cast<double>(result.attempted),
             "ratio");
  result.add("match_regret_pct", regret, "%");
  result.add("glinda_error_pct", glinda, "%");

  hs::json::Value& settings = result.settings;
  settings.set("jobs", hs::json::Value(static_cast<int>(kJobs)));
  settings.set("cache", hs::json::Value(cache));
  settings.set("model_passes", hs::json::Value(kModelPasses));
  settings.set("glinda_passes", hs::json::Value(kGlindaPasses));
  settings.set("checks_per_pass",
               hs::json::Value(static_cast<int>(checks_per_pass(options))));
  hs::json::Value& detail = result.detail;
  detail.set("passes", hs::json::Value(passes));
  hs::json::Value rates_json{hs::json::Value::Array{}};
  for (double rate : pass_rates) rates_json.push_back(hs::json::Value(rate));
  detail.set("pass_rates", std::move(rates_json));
  hs::json::Value setups{hs::json::Value::Array{}};
  for (double setup : setup_s) setups.push_back(hs::json::Value(setup));
  detail.set("setup_s", std::move(setups));
  detail.set("pass_scenarios",
             hs::json::Value(static_cast<std::int64_t>(
                 make_pass(options, 0).scenarios.size())));
  detail.set("checks", hs::json::Value(static_cast<std::int64_t>(checks.size())));
  detail.set("regret_groups", hs::json::Value(groups));
  detail.set("glinda_cells", hs::json::Value(glinda_cells));
  detail.set("sim_events", hs::json::Value(sim_events));

  if (traced == nullptr) return result;

  std::map<std::string, SpanSummary> spans;
  finish_trace(options, recorder, result, spans);
  const auto p50 = [&spans](const char* name) {
    return median(spans[name].us);
  };
  const auto calls = [&spans](const char* name) {
    return static_cast<double>(spans[name].calls);
  };
  result.add("trace.overhead_pct",
             replay_plain_s > 0.0
                 ? 100.0 * (replay_traced_s / replay_plain_s - 1.0)
                 : 0.0,
             "%");
  result.add("apps.build_calls", calls("apps.build"), "count");
  result.add("apps.build_us_p50", p50("apps.build"), "us");
  result.add("analyzer.match_calls", calls("analyzer.match"), "count");
  result.add("analyzer.match_us_p50", p50("analyzer.match"), "us");
  result.add("glinda.probe_calls", calls("glinda.probe"), "count");
  result.add("glinda.probe_us_p50", p50("glinda.probe"), "us");
  result.add("glinda.solve_calls", calls("glinda.solve"), "count");
  result.add("glinda.solve_us_p50", p50("glinda.solve"), "us");
  const SpanSummary& graph = spans["runtime.graph"];
  result.add("runtime.graph_tasks", median(graph.a), "count");
  result.add("runtime.graph_edges", median(graph.b), "count");
  result.add("runtime.graph_build_us_per_task",
             graph.a_total > 0.0 ? graph.total_ns / 1e3 / graph.a_total : 0.0,
             "us");
  const SpanSummary& execute = spans["runtime.execute"];
  result.add("runtime.execute_calls", calls("runtime.execute"), "count");
  result.add("runtime.execute_us_p50", p50("runtime.execute"), "us");
  result.add("runtime.execute_ns_per_event",
             execute.a_total > 0.0 ? execute.total_ns / execute.a_total : 0.0,
             "ns");
  result.add("sim.events", sim_events, "count");
  SpanSummary& run = spans["strategies.run"];
  result.add("strategies.run_calls", calls("strategies.run"), "count");
  result.add("strategies.run_us_p50", quantile(run.us, 0.5), "us");
  result.add("strategies.run_us_p99", quantile(run.us, 0.99), "us");
  result.add("strategies.self_us_p50", median(run.self_us), "us");
  // Graph build over run() time, both on the same DP scenarios.
  double dynamic_run_us = 0.0;
  for (std::size_t i = 0; i < run.us.size(); ++i)
    dynamic_run_us += run.a[i] == 1.0 ? run.us[i] : 0.0;
  result.add("strategies.graph_share_pct",
             dynamic_run_us > 0.0
                 ? 100.0 * graph.total_ns / 1e3 / dynamic_run_us
                 : 0.0,
             "%");
  result.add("faults.injected", injected, "count");
  result.add("faults.migrated_tasks", migrated, "count");
  result.add("faults.abandoned_tasks", abandoned, "count");
  result.add("sweep.key_us_p50", p50("sweep.key"), "us");
  result.add("sweep.cache_load_us_p50", p50("sweep.cache_load"), "us");
  result.add("sweep.cache_store_us_p50", p50("sweep.cache_store"), "us");
  result.add("sweep.payload_bytes_p50", median(spans["sweep.encode"].a),
             "bytes");
  result.add("sweep.cache_hit_ratio",
             cache_lookups > 0 ? static_cast<double>(cache_hits) /
                                     static_cast<double>(cache_lookups)
                               : 0.0,
             "ratio");
  result.add("sweep.twin_memo_hit_ratio",
             twin_lookups > 0 ? static_cast<double>(twin_hits) /
                                    static_cast<double>(twin_lookups)
                              : 0.0,
             "ratio");
  const SpanSummary& parse = spans["common.json_parse"];
  const SpanSummary& dump = spans["common.json_dump"];
  result.add("common.json_parse_mb_per_s",
             parse.total_ns > 0.0 ? parse.a_total / 1e6 / (parse.total_ns / 1e9)
                                  : 0.0,
             "MB/s");
  result.add("common.json_dump_mb_per_s",
             dump.total_ns > 0.0 ? dump.a_total / 1e6 / (dump.total_ns / 1e9)
                                 : 0.0,
             "MB/s");
  return result;
}

}  // namespace perfbench
