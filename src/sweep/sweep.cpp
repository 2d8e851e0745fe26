#include "sweep/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <unordered_map>

#include "common/error.hpp"
#include "common/single_flight.hpp"
#include "faults/fault_plan.hpp"
#include "hw/platform.hpp"
#include "obs/metrics.hpp"
#include "obs/phase_profiler.hpp"
#include "obs/validate.hpp"
#include "runtime/thread_pool.hpp"
#include "strategies/strategy_runner.hpp"

namespace hetsched::sweep {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ms(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since)
      .count();
}

json::Value metrics_to_json(const ScenarioMetrics& metrics) {
  json::Value per_kernel;
  for (double fraction : metrics.gpu_fraction_per_kernel)
    per_kernel.push_back(json::Value(fraction));
  if (metrics.gpu_fraction_per_kernel.empty())
    per_kernel = json::Value(json::Value::Array{});

  json::Value value;
  value.set("time_ms", json::Value(metrics.time_ms));
  value.set("gpu_fraction_overall",
            json::Value(metrics.gpu_fraction_overall));
  value.set("gpu_fraction_per_kernel", std::move(per_kernel));
  value.set("h2d_bytes", json::Value(metrics.h2d_bytes));
  value.set("d2h_bytes", json::Value(metrics.d2h_bytes));
  value.set("h2d_ms", json::Value(metrics.h2d_ms));
  value.set("d2h_ms", json::Value(metrics.d2h_ms));
  value.set("overhead_ms", json::Value(metrics.overhead_ms));
  value.set("tasks_executed", json::Value(metrics.tasks_executed));
  value.set("barriers", json::Value(metrics.barriers));
  value.set("scheduling_decisions",
            json::Value(metrics.scheduling_decisions));
  value.set("degradation_ratio", json::Value(metrics.degradation_ratio));
  value.set("baseline_time_ms", json::Value(metrics.baseline_time_ms));
  value.set("faults_injected", json::Value(metrics.faults_injected));
  value.set("fault_retries", json::Value(metrics.fault_retries));
  value.set("migrated_tasks", json::Value(metrics.migrated_tasks));
  value.set("repartitioned_tasks",
            json::Value(metrics.repartitioned_tasks));
  value.set("abandoned_tasks", json::Value(metrics.abandoned_tasks));
  value.set("run_completed", json::Value(metrics.run_completed));
  value.set("sim_events", json::Value(metrics.sim_events));
  return value;
}

ScenarioMetrics metrics_from_json(const json::Value& value) {
  ScenarioMetrics metrics;
  metrics.time_ms = value.at("time_ms").as_number();
  metrics.gpu_fraction_overall =
      value.at("gpu_fraction_overall").as_number();
  for (const json::Value& fraction :
       value.at("gpu_fraction_per_kernel").as_array())
    metrics.gpu_fraction_per_kernel.push_back(fraction.as_number());
  metrics.h2d_bytes = value.at("h2d_bytes").as_int64();
  metrics.d2h_bytes = value.at("d2h_bytes").as_int64();
  metrics.h2d_ms = value.at("h2d_ms").as_number();
  metrics.d2h_ms = value.at("d2h_ms").as_number();
  metrics.overhead_ms = value.at("overhead_ms").as_number();
  metrics.tasks_executed = value.at("tasks_executed").as_int64();
  metrics.barriers = value.at("barriers").as_int64();
  metrics.scheduling_decisions =
      value.at("scheduling_decisions").as_int64();
  metrics.degradation_ratio = value.at("degradation_ratio").as_number();
  metrics.baseline_time_ms = value.at("baseline_time_ms").as_number();
  metrics.faults_injected = value.at("faults_injected").as_int64();
  metrics.fault_retries = value.at("fault_retries").as_int64();
  metrics.migrated_tasks = value.at("migrated_tasks").as_int64();
  metrics.repartitioned_tasks = value.at("repartitioned_tasks").as_int64();
  metrics.abandoned_tasks = value.at("abandoned_tasks").as_int64();
  metrics.run_completed = value.at("run_completed").as_bool();
  metrics.sim_events = value.at("sim_events").as_int64();
  return metrics;
}

ScenarioStatus status_from_name(const std::string& name) {
  if (name == "ok") return ScenarioStatus::kOk;
  if (name == "inapplicable") return ScenarioStatus::kInapplicable;
  if (name == "failed") return ScenarioStatus::kFailed;
  throw InvalidArgument("unknown scenario status '" + name + "'");
}

}  // namespace

const char* scenario_status_name(ScenarioStatus status) {
  switch (status) {
    case ScenarioStatus::kOk: return "ok";
    case ScenarioStatus::kInapplicable: return "inapplicable";
    case ScenarioStatus::kFailed: return "failed";
  }
  return "unknown";
}

std::string ScenarioOutcome::to_payload() const {
  json::Value value;
  value.set("scenario", scenario.to_json());
  value.set("status", json::Value(scenario_status_name(status)));
  if (status != ScenarioStatus::kOk) {
    value.set("error", json::Value(error));
    return value.dump();
  }
  value.set("metrics", metrics_to_json(metrics));
  // Embedded as a JSON object; rt::report_to_json formats doubles through
  // json::format_double, so re-dumping the parsed object reproduces the
  // exact original bytes.
  value.set("report", json::Value::parse(report_json));
  if (!trace_json.empty()) {
    // Traced outcomes persist trace + validator findings so a --trace run
    // that hits the cache still returns them (stored as an opaque string:
    // the trace is already serialized chrome JSON and must round-trip
    // byte-exactly).
    value.set("trace", json::Value(trace_json));
    json::Value violations{json::Value::Array{}};
    for (const std::string& violation : trace_violations)
      violations.push_back(json::Value(violation));
    value.set("trace_violations", std::move(violations));
  }
  return value.dump();
}

ScenarioOutcome ScenarioOutcome::from_payload(const std::string& payload) {
  const json::Value value = json::Value::parse(payload);
  ScenarioOutcome outcome;
  outcome.scenario = Scenario::from_json(value.at("scenario"));
  outcome.status = status_from_name(value.at("status").as_string());
  if (outcome.status != ScenarioStatus::kOk) {
    outcome.error = value.at("error").as_string();
    return outcome;
  }
  outcome.metrics = metrics_from_json(value.at("metrics"));
  outcome.report_json = value.at("report").dump();
  // Lenient: entries cached by an untraced run have no trace members.
  if (const json::Value* trace = value.find("trace")) {
    outcome.trace_json = trace->as_string();
    for (const json::Value& violation :
         value.at("trace_violations").as_array())
      outcome.trace_violations.push_back(violation.as_string());
  }
  return outcome;
}

struct SweepEngine::RunMemo {
  SingleFlight<ScenarioOutcome> table;
  /// Baseline-twin lookups served by an outcome another lookup computed
  /// (or is computing) this run.
  std::atomic<std::size_t> twin_hits{0};
  /// Baseline twins actually computed: S faulted scenarios sharing one
  /// healthy twin => exactly 1.
  std::atomic<std::size_t> twin_computes{0};
};

SweepEngine::SweepEngine(SweepOptions options)
    : options_(std::move(options)) {
  // The scenario cache key does not close over the explore spec, so a
  // cached canonical result would shadow an explored one (and vice versa).
  HS_REQUIRE(!(options_.use_cache && options_.explore.active()),
             "schedule exploration is incompatible with the result cache");
}

ScenarioOutcome SweepEngine::compute(const Scenario& scenario) const {
  return compute_scenario(scenario, nullptr);
}

ScenarioOutcome SweepEngine::compute_scenario(const Scenario& scenario,
                                              RunMemo* memo) const {
  const obs::ScopedPhase profile_phase(obs::kPhaseSweepScenario);
  ScenarioOutcome outcome;
  outcome.scenario = scenario;
  const Clock::time_point start = Clock::now();

  // Faulted scenarios are measured against their own fault-free twin: the
  // baseline run fixes the horizon the named plan's relative offsets
  // resolve against, and its makespan is the degradation denominator. The
  // twin is part of this scenario's deterministic closure, not a separate
  // sweep entry — but within one run() every faulted scenario that maps to
  // the same healthy key shares ONE twin computation through the memo
  // instead of recomputing it per fault seed / plan.
  double baseline_ms = 0.0;
  if (!scenario.fault_plan.empty()) {
    Scenario healthy = scenario;
    healthy.fault_plan.clear();
    healthy.fault_seed = 0;
    std::shared_ptr<const ScenarioOutcome> base;
    if (memo != nullptr) {
      auto lookup = memo->table.get_or_compute(
          scenario_key(healthy),
          [this, &healthy, memo] { return compute_scenario(healthy, memo); });
      (lookup.owner ? memo->twin_computes : memo->twin_hits)
          .fetch_add(1, std::memory_order_relaxed);
      base = std::move(lookup.value);
    } else {
      base = std::make_shared<const ScenarioOutcome>(
          compute_scenario(healthy, nullptr));
    }
    if (!base->ok()) {
      outcome.status = base->status;
      outcome.error = base->error;
      outcome.wall_ms = elapsed_ms(start);
      return outcome;
    }
    baseline_ms = base->metrics.time_ms;
  }

  try {
    const hw::PlatformSpec platform =
        hw::platform_by_name(scenario.platform);
    apps::Application::Config config =
        scenario.small ? apps::test_config(scenario.app)
                       : apps::paper_config(scenario.app);
    config.costs = scenario.costs;
    config.record_trace = options_.record_trace;
    // Spans ride along with the trace so validate_trace can check the
    // chunk-lifecycle chains, not just lane overlap.
    config.record_observability = options_.record_trace;
    std::unique_ptr<apps::Application> application =
        apps::make_paper_app(scenario.app, platform, config);

    strategies::StrategyOptions strategy_options;
    strategy_options.sync_between_kernels = scenario.sync;
    strategy_options.task_count = scenario.task_count;
    strategy_options.explore = options_.explore;
    if (!scenario.fault_plan.empty()) {
      const SimTime horizon =
          std::max<SimTime>(1, std::llround(baseline_ms * 1e6));
      strategy_options.fault_plan =
          faults::make_named_plan(scenario.fault_plan, horizon,
                                  scenario.fault_seed,
                                  platform.device_count());
    }
    strategies::StrategyRunner runner(*application, strategy_options);
    const strategies::StrategyResult result = runner.run(scenario.strategy);

    outcome.metrics.time_ms = result.time_ms();
    outcome.metrics.gpu_fraction_overall = result.gpu_fraction_overall;
    outcome.metrics.gpu_fraction_per_kernel = result.gpu_fraction_per_kernel;
    const rt::TransferReport& transfers = result.report.transfers;
    outcome.metrics.h2d_bytes = transfers.h2d_bytes;
    outcome.metrics.d2h_bytes = transfers.d2h_bytes;
    outcome.metrics.h2d_ms = to_millis(transfers.h2d_time);
    outcome.metrics.d2h_ms = to_millis(transfers.d2h_time);
    outcome.metrics.overhead_ms = to_millis(result.report.overhead_time);
    outcome.metrics.tasks_executed =
        static_cast<std::int64_t>(result.report.tasks_executed);
    outcome.metrics.barriers =
        static_cast<std::int64_t>(result.report.barriers);
    outcome.metrics.scheduling_decisions =
        static_cast<std::int64_t>(result.report.scheduling_decisions);
    outcome.metrics.sim_events =
        static_cast<std::int64_t>(result.report.sim_events);
    const faults::FaultReport& fault_report = result.report.faults;
    outcome.metrics.faults_injected = fault_report.injected_faults;
    outcome.metrics.fault_retries = fault_report.retries;
    outcome.metrics.migrated_tasks = fault_report.migrated_tasks;
    outcome.metrics.repartitioned_tasks = fault_report.repartitioned_tasks;
    outcome.metrics.abandoned_tasks = fault_report.abandoned_tasks;
    outcome.metrics.run_completed = fault_report.run_completed;
    if (!scenario.fault_plan.empty()) {
      outcome.metrics.baseline_time_ms = baseline_ms;
      if (fault_report.run_completed && baseline_ms > 0.0)
        outcome.metrics.degradation_ratio = result.time_ms() / baseline_ms;
    }
    outcome.report_json =
        rt::report_to_json(result.report, application->executor().kernels());
    if (options_.record_trace) {
      outcome.trace_json = result.report.trace.to_chrome_json();
      outcome.trace_violations = obs::validate_trace(
          result.report.trace, result.report.makespan,
          result.report.obs ? &result.report.obs->spans : nullptr);
    }
  } catch (const InvalidArgument& error) {
    outcome.status = ScenarioStatus::kInapplicable;
    outcome.error = error.what();
  } catch (const std::exception& error) {
    outcome.status = ScenarioStatus::kFailed;
    outcome.error = error.what();
  }
  outcome.wall_ms = elapsed_ms(start);
  return outcome;
}

SweepRun SweepEngine::run(const std::vector<Scenario>& scenarios) const {
  const Clock::time_point start = Clock::now();
  SweepRun run;
  run.outcomes.resize(scenarios.size());

  std::unique_ptr<ResultCache> cache;
  if (options_.use_cache)
    cache = std::make_unique<ResultCache>(options_.cache_dir);

  // The scenario key is the unit of identity for every layer below: it is
  // hashed for the disk cache, compared for in-run dedup, and derived again
  // for every baseline twin. Compute each input's key exactly once here
  // instead of once per use inside the loops.
  std::vector<std::string> keys;
  keys.reserve(scenarios.size());
  for (const Scenario& scenario : scenarios)
    keys.push_back(scenario_key(scenario));

  // Group duplicate inputs: only the first occurrence of a key touches the
  // cache or a worker; later occurrences copy its outcome (scenario dedup).
  std::unordered_map<std::string_view, std::size_t> first_by_key;
  first_by_key.reserve(keys.size());
  std::vector<std::size_t> primaries;
  primaries.reserve(scenarios.size());
  std::vector<std::pair<std::size_t, std::size_t>> duplicates;  // dup, primary
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const auto [it, inserted] = first_by_key.emplace(keys[i], i);
    if (inserted) {
      primaries.push_back(i);
    } else {
      duplicates.emplace_back(i, it->second);
    }
  }

  // Resolve cache hits up front; only misses are dispatched to workers.
  std::vector<std::size_t> misses;
  misses.reserve(primaries.size());
  for (std::size_t i : primaries) {
    bool hit = false;
    if (cache) {
      const Clock::time_point lookup = Clock::now();
      if (const auto payload = cache->load(keys[i])) {
        try {
          ScenarioOutcome outcome = ScenarioOutcome::from_payload(*payload);
          if (outcome.status == ScenarioStatus::kFailed) {
            // Failed outcomes are never stored (transient failures must not
            // replay as permanent hits); an entry like this predates that
            // rule, so drop it and recompute.
            cache->evict(keys[i]);
          } else if (options_.record_trace && outcome.ok() &&
                     outcome.trace_json.empty()) {
            // The entry predates trace persistence (or was written by an
            // untraced run). It is still valid for untraced consumers, so
            // leave it in place, but this traced run must recompute — the
            // fresh store below upgrades the entry with its trace.
          } else {
            if (!options_.record_trace) {
              // Untraced runs return exactly what a fresh compute would.
              outcome.trace_json.clear();
              outcome.trace_violations.clear();
            }
            run.outcomes[i] = std::move(outcome);
            run.outcomes[i].cache_hit = true;
            run.outcomes[i].wall_ms = elapsed_ms(lookup);
            hit = true;
          }
        } catch (const InvalidArgument&) {
          // An entry that passed the byte-level checks but no longer
          // deserializes (e.g. written by a different build): drop it and
          // recompute.
          cache->evict(keys[i]);
          run.outcomes[i] = ScenarioOutcome{};
        }
      }
    }
    if (!hit) misses.push_back(i);
  }

  // One memo per run: shares fault-free baseline twins across all faulted
  // scenarios (and catches a twin doubling as a top-level scenario, in
  // either order). `crossover_hits` counts top-level scenarios whose result
  // materialized from a twin somebody else computed.
  RunMemo memo;
  std::atomic<std::size_t> crossover_hits{0};
  const auto compute_into = [&](std::size_t index) {
    const Clock::time_point begin = Clock::now();
    const auto lookup = memo.table.get_or_compute(
        keys[index], [this, &scenarios, &memo, index] {
          return compute_scenario(scenarios[index], &memo);
        });
    run.outcomes[index] = *lookup.value;
    // Equal keys imply equal results, but echo this row's own descriptor.
    run.outcomes[index].scenario = scenarios[index];
    if (!lookup.owner) {
      run.outcomes[index].memo_hit = true;
      run.outcomes[index].wall_ms = elapsed_ms(begin);
      crossover_hits.fetch_add(1, std::memory_order_relaxed);
    }
  };
  if (options_.parallel && misses.size() > 1) {
    rt::ThreadPool pool(options_.jobs);
    for (std::size_t index : misses)
      pool.enqueue([&compute_into, index] { compute_into(index); });
    pool.wait_idle();
  } else {
    for (std::size_t index : misses) compute_into(index);
  }

  if (cache) {
    for (std::size_t index : misses) {
      // Never persist kFailed: a transient failure (OOM, interrupted run)
      // must not replay as a permanent cache hit.
      if (run.outcomes[index].status == ScenarioStatus::kFailed) continue;
      cache->store(keys[index], run.outcomes[index].to_payload());
    }
  }

  // Duplicates copy their primary's outcome — computed, cache-loaded, or
  // shared, it is the same bytes a fresh compute would produce.
  for (const auto& [dup, primary] : duplicates) {
    const Clock::time_point begin = Clock::now();
    run.outcomes[dup] = run.outcomes[primary];
    run.outcomes[dup].scenario = scenarios[dup];
    run.outcomes[dup].cache_hit = false;
    run.outcomes[dup].memo_hit = true;
    run.outcomes[dup].wall_ms = elapsed_ms(begin);
  }

  run.summary.scenarios = scenarios.size();
  run.summary.computed = misses.size() - crossover_hits.load();
  run.summary.cache_hits = primaries.size() - misses.size();
  run.summary.scenario_dedup_hits = duplicates.size() + crossover_hits.load();
  run.summary.twin_memo_hits = memo.twin_hits.load();
  run.summary.twin_computes = memo.twin_computes.load();
  if (cache) {
    run.summary.cache_misses = misses.size();
    const CacheCounters cache_counters = cache->counters();
    run.summary.cache_evictions =
        static_cast<std::size_t>(cache_counters.evictions);
    run.summary.cache_dropped_stores =
        static_cast<std::size_t>(cache_counters.dropped_stores);
  }
  for (const ScenarioOutcome& outcome : run.outcomes) {
    switch (outcome.status) {
      case ScenarioStatus::kOk: ++run.summary.ok; break;
      case ScenarioStatus::kInapplicable: ++run.summary.inapplicable; break;
      case ScenarioStatus::kFailed: ++run.summary.failed; break;
    }
  }
  run.summary.wall_ms = elapsed_ms(start);

  if (options_.metrics != nullptr) {
    obs::MetricsRegistry& registry = *options_.metrics;
    registry.counter_add(obs::kSweepTwinMemoHits,
                         static_cast<std::int64_t>(run.summary.twin_memo_hits));
    registry.counter_add(obs::kSweepTwinComputes,
                         static_cast<std::int64_t>(run.summary.twin_computes));
    registry.counter_add(
        obs::kSweepScenarioDedupHits,
        static_cast<std::int64_t>(run.summary.scenario_dedup_hits));
    registry.counter_add(obs::kSweepCacheHits,
                         static_cast<std::int64_t>(run.summary.cache_hits));
    registry.counter_add(obs::kSweepCacheMisses,
                         static_cast<std::int64_t>(run.summary.cache_misses));
    registry.counter_add(
        obs::kSweepCacheDroppedStores,
        static_cast<std::int64_t>(run.summary.cache_dropped_stores));
  }
  return run;
}

std::vector<GroupRanking> compute_rankings(
    const std::vector<ScenarioOutcome>& outcomes) {
  std::vector<GroupRanking> rankings;
  const auto group_of = [&rankings](const std::string& name) -> GroupRanking& {
    for (GroupRanking& ranking : rankings) {
      if (ranking.group == name) return ranking;
    }
    rankings.push_back(GroupRanking{name, {}, analyzer::StrategyKind::kOnlyCpu});
    return rankings.back();
  };
  for (const ScenarioOutcome& outcome : outcomes) {
    if (!outcome.ok()) continue;
    group_of(outcome.scenario.group())
        .order.emplace_back(outcome.scenario.strategy, outcome.time_ms());
  }
  for (GroupRanking& ranking : rankings) {
    // Stable ordering: ties broken by strategy enum position.
    std::sort(ranking.order.begin(), ranking.order.end(),
              [](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second < b.second;
                return static_cast<int>(a.first) < static_cast<int>(b.first);
              });
    for (const auto& [kind, time] : ranking.order) {
      (void)time;
      if (kind != analyzer::StrategyKind::kOnlyCpu &&
          kind != analyzer::StrategyKind::kOnlyGpu) {
        ranking.winner = kind;
        break;
      }
    }
  }
  return rankings;
}

std::string sweep_to_json(const SweepRun& run) {
  json::Value summary;
  summary.set("scenarios",
              json::Value(static_cast<std::int64_t>(run.summary.scenarios)));
  summary.set("ok", json::Value(static_cast<std::int64_t>(run.summary.ok)));
  summary.set("inapplicable", json::Value(static_cast<std::int64_t>(
                                  run.summary.inapplicable)));
  summary.set("failed",
              json::Value(static_cast<std::int64_t>(run.summary.failed)));
  summary.set("cache_hits", json::Value(static_cast<std::int64_t>(
                                run.summary.cache_hits)));
  summary.set("cache_misses", json::Value(static_cast<std::int64_t>(
                                  run.summary.cache_misses)));
  summary.set("cache_evictions", json::Value(static_cast<std::int64_t>(
                                     run.summary.cache_evictions)));
  summary.set("cache_dropped_stores",
              json::Value(static_cast<std::int64_t>(
                  run.summary.cache_dropped_stores)));
  summary.set("computed",
              json::Value(static_cast<std::int64_t>(run.summary.computed)));
  summary.set("twin_memo_hits", json::Value(static_cast<std::int64_t>(
                                    run.summary.twin_memo_hits)));
  summary.set("twin_computes", json::Value(static_cast<std::int64_t>(
                                   run.summary.twin_computes)));
  summary.set("scenario_dedup_hits",
              json::Value(static_cast<std::int64_t>(
                  run.summary.scenario_dedup_hits)));
  summary.set("wall_ms", json::Value(run.summary.wall_ms));

  json::Value scenarios{json::Value::Array{}};
  for (const ScenarioOutcome& outcome : run.outcomes) {
    json::Value entry;
    entry.set("scenario", outcome.scenario.to_json());
    entry.set("label", json::Value(outcome.scenario.label()));
    entry.set("status",
              json::Value(scenario_status_name(outcome.status)));
    entry.set("cache_hit", json::Value(outcome.cache_hit));
    entry.set("memo_hit", json::Value(outcome.memo_hit));
    entry.set("wall_ms", json::Value(outcome.wall_ms));
    if (!outcome.trace_violations.empty()) {
      json::Value violations{json::Value::Array{}};
      for (const std::string& violation : outcome.trace_violations)
        violations.push_back(json::Value(violation));
      entry.set("trace_violations", std::move(violations));
    }
    if (outcome.ok()) {
      entry.set("metrics", metrics_to_json(outcome.metrics));
      entry.set("report", json::Value::parse(outcome.report_json));
    } else {
      entry.set("error", json::Value(outcome.error));
    }
    scenarios.push_back(std::move(entry));
  }

  json::Value rankings{json::Value::Array{}};
  for (const GroupRanking& ranking : compute_rankings(run.outcomes)) {
    json::Value order{json::Value::Array{}};
    for (const auto& [kind, time] : ranking.order) {
      json::Value entry;
      entry.set("strategy", json::Value(analyzer::strategy_name(kind)));
      entry.set("time_ms", json::Value(time));
      order.push_back(std::move(entry));
    }
    json::Value entry;
    entry.set("group", json::Value(ranking.group));
    entry.set("winner", json::Value(analyzer::strategy_name(ranking.winner)));
    entry.set("order", std::move(order));
    rankings.push_back(std::move(entry));
  }

  json::Value document;
  document.set("summary", std::move(summary));
  document.set("scenarios", std::move(scenarios));
  document.set("rankings", std::move(rankings));
  return document.dump();
}

}  // namespace hetsched::sweep
