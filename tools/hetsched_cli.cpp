/// hetsched_cli — command-line front end to the matchmaker and strategies.
///
///   hetsched_cli list                      # applications & platforms
///   hetsched_cli catalog                   # the 86-app structure study
///   hetsched_cli match   --app <name>      # classify + select (Figure 2)
///   hetsched_cli run     --app <name> [--strategy <s>] [--platform <p>]
///                        [--sync] [--tasks <m>] [--small] [--json]
///   hetsched_cli compare --app <name> [--sync] [--platform <p>] [--csv]
///   hetsched_cli trace   --app <name> --out <file.json>
///                        [--strategy <s>]  # chrome://tracing timeline
///   hetsched_cli analyze --app <name> [--strategy <s>] [--gantt]
///                        # utilization / overlap breakdown (+ timeline)
///   hetsched_cli tune    --app <name> --strategy <s> [--sync]
///                        # task-size auto-tuning (paper Section V)
///   hetsched_cli sweep   [--apps a,b] [--strategies s1,s2]
///                        [--platforms p1,p2] [--sync-mode both|on|off]
///                        [--small] [--serial] [--jobs N]
///                        [--no-cache] [--cache-dir <dir>] [--json <file>]
///                        [--csv]
///                        # batch scenario sweep with result caching
///   hetsched_cli faults  [--plan <name>] [--seed <n>] [--app a|--apps a,b]
///                        [--strategies s1,s2] [--platform <p>] [--sync]
///                        [--small] [--tasks <m>] [--serial] [--jobs N]
///                        [--no-cache] [--cache-dir <dir>] [--json <file>]
///                        [--csv]   # degradation study under a FaultPlan
///   hetsched_cli metrics --app <name> [--strategy <s>] [--plan <name>|none]
///                        [--seed <n>] [--format prom|json] [--out <file>]
///                        [--sync] [--small] [--tasks <m>] [--platform <p>]
///                        # metrics registry of one (optionally faulted) run
///   hetsched_cli explain --app <name> [--json] [--sync] [--tasks <m>]
///                        [--platform <p>] [--small]
///                        # matchmaker decision + predicted-time inputs
///   hetsched_cli fuzz    [--seed N] [--iters K] [--corpus <file>]
///                        [--repro <file>] [--out <file>] [--no-shrink]
///                        [--plant <mutation>] [--oracles] [--serve]
///                        [--explore random|fair|dfs] [--schedules K]
///                        # property-fuzz the invariant oracles; exit 4 on
///                        # a counterexample (repro JSON written to --out).
///                        # --explore fans each seed out into K explored
///                        # schedules checked by the schedule oracles;
///                        # --serve replays each case's query through a
///                        # loopback daemon (cache-transparency-serve)
///   hetsched_cli serve   [--port P] [--host H] [--workers N]
///                        [--max-queue N] [--cache-dir <dir>]
///                        [--announce-port] [--metrics-out <file>]
///                        [--trace-capacity N] [--log-format text|json]
///                        [--log-level debug|info|warn|error|off]
///                        # matchmaker daemon: newline-delimited JSON
///                        # frames over TCP + GET /metrics on the same
///                        # port; SIGINT/SIGTERM drain gracefully. Every
///                        # request is traced end to end; trace-dump
///                        # frames retrieve the span trees
///   hetsched_cli query   --port P | --port-stdin [--op match|explain|
///                        analyze] [--app <name>] [--strategy <s>]
///                        [--platform <p>] [--sync] [--small] [--tasks <m>]
///                        [--gantt] [--json] [--then-shutdown] [--trace]
///                        # one query against a running daemon; prints the
///                        # byte-identical offline answer. exit 0 ok,
///                        # 1 error, 5 overload/draining, 6 unreachable.
///                        # --trace fetches the request's span tree via a
///                        # trace-dump frame and prints it to stderr
///
/// The usage string main() prints is generated from the same verb table
/// that dispatches commands, so it cannot drift from what actually runs.
/// Each verb also lists the flags it reads; any other flag is a usage error
/// (exit 2) rather than silently ignored.
#include <algorithm>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analyzer/catalog.hpp"
#include "check/engine.hpp"
#include "analyzer/matchmaker.hpp"
#include "apps/registry.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "faults/fault_plan.hpp"
#include "common/logging.hpp"
#include "hw/platform.hpp"
#include "obs/log.hpp"
#include "obs/observability.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "strategies/autotune.hpp"
#include "strategies/strategy_runner.hpp"
#include "sweep/sweep.hpp"

namespace {

using namespace hetsched;

struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  bool flag(const std::string& name) const { return options.count(name); }
  std::string get(const std::string& name,
                  const std::string& fallback = "") const {
    auto it = options.find(name);
    return it == options.end() ? fallback : it->second;
  }
};

Args parse(int argc, char** argv) {
  Args args;
  if (argc > 1) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) continue;
    token = token.substr(2);
    // Both spellings work: --explore dfs and --explore=dfs.
    const std::size_t eq = token.find('=');
    if (eq != std::string::npos) {
      args.options[token.substr(0, eq)] = token.substr(eq + 1);
      continue;
    }
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      args.options[token] = argv[++i];
    } else {
      args.options[token] = "";
    }
  }
  return args;
}

/// Ceilings of the numeric flags. Thread pools and queues are sized from
/// them before any work starts, so each stops far short of what would
/// exhaust the process; --tasks matches what the daemon serves.
constexpr std::uint64_t kMaxThreads = 256;
constexpr std::uint64_t kMaxQueue = 1 << 16;
constexpr std::uint64_t kMaxTasks = serve::kMaxServedTasks;
constexpr std::uint64_t kMaxRepeats = 1 << 20;
constexpr std::uint64_t kMaxPort = 65535;

/// Stores numeric flag --`name` in `out` when it is given. Every numeric
/// flag is read here, so a malformed, negative or oversized value is a
/// one-line error (exit 1) rather than an uncaught std::stoi exception or
/// a negative count wrapped to a huge unsigned one.
template <typename T>
void read_number(const Args& args, const std::string& name,
                 std::uint64_t max, T& out) {
  if (args.flag(name))
    out = static_cast<T>(parse_bounded_uint(args.get(name), max, "--" + name));
}

const std::map<std::string, apps::PaperApp>& app_names() {
  static const std::map<std::string, apps::PaperApp> names = {
      {"matrixmul", apps::PaperApp::kMatrixMul},
      {"blackscholes", apps::PaperApp::kBlackScholes},
      {"nbody", apps::PaperApp::kNbody},
      {"hotspot", apps::PaperApp::kHotSpot},
      {"stream-seq", apps::PaperApp::kStreamSeq},
      {"stream-loop", apps::PaperApp::kStreamLoop},
  };
  return names;
}

hw::PlatformSpec platform_by_name(const std::string& name) {
  return hw::platform_by_name(name);
}

analyzer::StrategyKind strategy_by_name(const std::string& name) {
  return analyzer::strategy_from_name(name);
}

std::unique_ptr<apps::Application> make_app(const Args& args,
                                            const hw::PlatformSpec& platform,
                                            bool record_trace = false,
                                            bool record_obs = false) {
  // One app-construction policy for the whole binary: the offline verbs
  // and the serve daemon instantiate applications identically.
  return serve::make_named_app(args.get("app"), platform, args.flag("small"),
                               record_trace, record_obs);
}

/// The query equivalent of this invocation's arguments. match / explain /
/// analyze print serve::answer() of exactly this request, which is what
/// makes `query` byte-identical to the offline verbs by construction.
serve::QueryRequest request_from_args(const Args& args,
                                      const std::string& op) {
  serve::QueryRequest request;
  request.op = op;
  request.app = args.get("app");
  request.platform = args.get("platform");
  request.strategy = args.get("strategy");
  request.sync = args.flag("sync");
  request.small = args.flag("small");
  read_number(args, "tasks", kMaxTasks, request.tasks);
  request.gantt = args.flag("gantt");
  request.json = args.flag("json");
  return request;
}

strategies::StrategyOptions options_from(const Args& args) {
  strategies::StrategyOptions options;
  options.sync_between_kernels = args.flag("sync");
  read_number(args, "tasks", kMaxTasks, options.task_count);
  return options;
}

void print_result(const strategies::StrategyResult& result) {
  std::cout << analyzer::strategy_name(result.kind) << ": "
            << format_fixed(result.time_ms(), 2) << " ms, accelerator share "
            << format_percent(result.gpu_fraction_overall) << ", transfers "
            << format_bytes(static_cast<double>(
                   result.report.transfers.total_bytes()))
            << " (" << format_time(result.report.transfers.total_time())
            << "), overhead " << format_time(result.report.overhead_time)
            << "\n";
}

int cmd_list() {
  std::cout << "applications:\n";
  for (const auto& [name, kind] : app_names()) {
    const auto config = apps::paper_config(kind);
    std::cout << "  " << name << "  (" << config.items << " items, "
              << config.iterations << " iteration(s))\n";
  }
  std::cout << "  spectral-dag  (16777216 items, 10 iterations; MK-DAG "
               "extension)\n";
  std::cout << "  tree-reduction  (134217728 inputs; shrinking MK-Seq "
               "extension)\n";
  std::cout << "  triangular-mv  (16384 rows; imbalanced SK-One "
               "extension)\n";
  std::cout << "  unstable-loop  (8388608 items, 8 sweeps; drifting-loop "
               "extension)\n";
  std::cout << "platforms:\n  reference, small-gpu, dual-gpu, cpu-gpu-phi, "
               "cpu-only\n";
  std::cout << "strategies:\n  sp-single, sp-unified, sp-varied, dp-perf, "
               "dp-dep, only-cpu, only-gpu, sp-dag (extension)\n";
  return 0;
}

int cmd_catalog(const Args& args) {
  // The 86-application kernel-structure study, classified live.
  Table table({"suite", "application", "class", "selected strategy"});
  for (const analyzer::CatalogEntry& entry :
       analyzer::application_catalog()) {
    analyzer::AppDescriptor descriptor;
    descriptor.name = entry.name;
    descriptor.structure = entry.structure;
    descriptor.sync = entry.sync;
    const auto match = analyzer::Matchmaker{}.match(descriptor);
    table.add_row({entry.suite, entry.name,
                   analyzer::app_class_name(match.app_class),
                   analyzer::strategy_name(match.best)});
  }
  table.print(std::cout, args.flag("csv"));
  std::cout << "\nclass distribution:";
  for (const auto& [cls, count] : analyzer::catalog_class_distribution())
    std::cout << "  " << analyzer::app_class_name(cls) << "=" << count;
  std::cout << "\n";
  return 0;
}

int cmd_match(const Args& args) {
  std::cout << serve::answer(request_from_args(args, "match"));
  return 0;
}

int cmd_run(const Args& args) {
  const hw::PlatformSpec platform = platform_by_name(args.get("platform"));
  auto app = make_app(args, platform);
  strategies::StrategyRunner runner(*app, options_from(args));
  strategies::StrategyResult result;
  if (args.flag("strategy")) {
    result = runner.run(strategy_by_name(args.get("strategy")));
  } else {
    const auto matched = runner.run_matched();
    if (!args.flag("json")) {
      std::cout << "analyzer selected "
                << analyzer::strategy_name(matched.match.best) << " ("
                << analyzer::app_class_name(matched.match.app_class)
                << ")\n";
    }
    result = matched.result;
  }
  if (args.flag("json")) {
    std::cout << rt::report_to_json(result.report, app->executor().kernels())
              << "\n";
  } else {
    print_result(result);
  }
  if (args.flag("small")) {
    app->verify();
    if (!args.flag("json")) std::cout << "functional verification: ok\n";
  }
  return 0;
}

int cmd_tune(const Args& args) {
  if (!args.flag("strategy"))
    throw InvalidArgument("tune needs --strategy <s>");
  const hw::PlatformSpec platform = platform_by_name(args.get("platform"));
  auto app = make_app(args, platform);
  const auto result = strategies::tune_task_count(
      *app, strategy_by_name(args.get("strategy")),
      strategies::default_task_count_candidates(platform.cpu.lanes),
      options_from(args));
  Table table({"m (chunks)", "time (ms)"});
  for (const auto& trial : result.trials) {
    table.add_row({std::to_string(trial.task_count),
                   format_fixed(trial.time_ms, 2)});
  }
  table.print(std::cout, args.flag("csv"));
  std::cout << "best: m = " << result.best_task_count << " ("
            << format_fixed(result.best_time_ms, 2) << " ms)\n";
  return 0;
}

int cmd_compare(const Args& args) {
  const hw::PlatformSpec platform = platform_by_name(args.get("platform"));
  auto app = make_app(args, platform);
  strategies::StrategyRunner runner(*app, options_from(args));
  const auto results = runner.run_ranked_and_baselines();
  Table table({"strategy", "time (ms)", "accelerator share"});
  for (const auto& [kind, result] : results) {
    table.add_row({analyzer::strategy_name(kind),
                   format_fixed(result.time_ms(), 2),
                   format_percent(result.gpu_fraction_overall)});
  }
  table.print(std::cout, args.flag("csv"));
  return 0;
}

int cmd_trace(const Args& args) {
  const std::string out = args.get("out");
  if (out.empty()) throw InvalidArgument("trace needs --out <file.json>");
  const hw::PlatformSpec platform = platform_by_name(args.get("platform"));
  auto app =
      make_app(args, platform, /*record_trace=*/true, /*record_obs=*/true);
  strategies::StrategyRunner runner(*app, options_from(args));
  const auto result =
      args.flag("strategy")
          ? runner.run(strategy_by_name(args.get("strategy")))
          : runner.run_matched().result;
  std::ofstream file(out);
  HS_REQUIRE(file.good(), "cannot open '" << out << "' for writing");
  // Counter tracks (queue depth, EMA estimates, in-flight transfers) ride
  // along as Perfetto "C" events when observability was recorded.
  if (result.report.obs) {
    file << obs::chrome_trace_with_counters(result.report.trace,
                                            result.report.obs->metrics);
  } else {
    file << result.report.trace.to_chrome_json();
  }
  std::cout << "wrote " << result.report.trace.events().size()
            << " trace events to " << out
            << " (load in chrome://tracing or ui.perfetto.dev)\n";
  return 0;
}

int cmd_analyze(const Args& args) {
  std::cout << serve::answer(request_from_args(args, "analyze"));
  return 0;
}

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> parts;
  std::string current;
  for (char ch : text) {
    if (ch == ',') {
      if (!current.empty()) parts.push_back(current);
      current.clear();
    } else {
      current += ch;
    }
  }
  if (!current.empty()) parts.push_back(current);
  return parts;
}

int cmd_sweep(const Args& args) {
  // Axis selection: defaults cover the paper's full evaluation matrix.
  std::vector<apps::PaperApp> sweep_apps;
  if (args.flag("apps")) {
    for (const std::string& name : split_list(args.get("apps")))
      sweep_apps.push_back(apps::paper_app_from_name(name));
  } else {
    sweep_apps = apps::all_paper_apps();
  }
  std::vector<analyzer::StrategyKind> sweep_strategies;
  if (args.flag("strategies")) {
    for (const std::string& name : split_list(args.get("strategies")))
      sweep_strategies.push_back(analyzer::strategy_from_name(name));
  } else {
    sweep_strategies = analyzer::paper_strategies();
  }
  const std::vector<std::string> sweep_platforms =
      args.flag("platforms") ? split_list(args.get("platforms"))
                             : std::vector<std::string>{"reference"};
  const std::string sync_mode = args.get("sync-mode", "both");
  std::vector<bool> sync_variants;
  if (sync_mode == "both") sync_variants = {false, true};
  else if (sync_mode == "on") sync_variants = {true};
  else if (sync_mode == "off") sync_variants = {false};
  else throw InvalidArgument("--sync-mode must be both, on, or off");

  std::vector<sweep::Scenario> scenarios = sweep::enumerate_matrix(
      sweep_apps, sweep_strategies, sweep_platforms, sync_variants,
      args.flag("small"));
  for (sweep::Scenario& scenario : scenarios)
    read_number(args, "tasks", kMaxTasks, scenario.task_count);

  sweep::SweepOptions options;
  options.parallel = !args.flag("serial");
  read_number(args, "jobs", kMaxThreads, options.jobs);
  options.use_cache = !args.flag("no-cache");
  options.cache_dir = args.get("cache-dir", ".hs-sweep-cache");

  const sweep::SweepEngine engine(options);
  const sweep::SweepRun run = engine.run(scenarios);

  if (args.flag("json") && args.get("json").empty()) {
    std::cout << sweep::sweep_to_json(run) << "\n";
    return run.summary.failed == 0 ? 0 : 1;
  }

  Table table({"scenario", "status", "time (ms)", "accelerator share",
               "source", "wall (ms)"});
  for (const sweep::ScenarioOutcome& outcome : run.outcomes) {
    table.add_row(
        {outcome.scenario.label(),
         sweep::scenario_status_name(outcome.status),
         outcome.ok() ? format_fixed(outcome.time_ms(), 2) : "-",
         outcome.ok() ? format_percent(outcome.gpu_fraction_overall()) : "-",
         outcome.cache_hit ? "cache" : "computed",
         format_fixed(outcome.wall_ms, 2)});
  }
  table.print(std::cout, args.flag("csv"));

  std::cout << "\nranking per scenario group (best first):\n";
  for (const sweep::GroupRanking& ranking :
       sweep::compute_rankings(run.outcomes)) {
    std::vector<std::string> names;
    for (const auto& [kind, time] : ranking.order) {
      names.push_back(std::string(analyzer::strategy_name(kind)) + " (" +
                      format_fixed(time, 1) + ")");
    }
    std::cout << "  " << ranking.group << ": " << join(names, " > ")
              << "  [winner: " << analyzer::strategy_name(ranking.winner)
              << "]\n";
  }

  const sweep::SweepSummary& summary = run.summary;
  std::cout << "\nsweep: " << summary.scenarios << " scenario(s) in "
            << format_fixed(summary.wall_ms, 1) << " ms — " << summary.ok
            << " ok, " << summary.inapplicable << " inapplicable, "
            << summary.failed << " failed; " << summary.cache_hits
            << " cache hit(s), " << summary.cache_misses << " miss(es), "
            << summary.cache_evictions << " evicted, " << summary.computed
            << " computed (" << (options.parallel ? "parallel" : "serial")
            << ")\n";
  if (options.use_cache)
    std::cout << "cache: " << options.cache_dir << "\n";

  if (args.flag("json")) {
    std::ofstream file(args.get("json"));
    HS_REQUIRE(file.good(),
               "cannot open '" << args.get("json") << "' for writing");
    file << sweep::sweep_to_json(run) << "\n";
    std::cout << "wrote JSON to " << args.get("json") << "\n";
  }
  return run.summary.failed == 0 ? 0 : 1;
}

int cmd_faults(const Args& args) {
  // Degradation study: run an app x strategy matrix under ONE named
  // FaultPlan and report each strategy's slowdown against its own
  // fault-free baseline. This is where the resilience contrast shows up:
  // DP strategies migrate / re-partition around the perturbation while SP
  // strategies honestly eat it (or DNF on a device failure).
  const std::string plan_name = args.get("plan", "gpu-slowdown");
  const std::vector<std::string> known_plans = faults::named_fault_plans();
  if (std::find(known_plans.begin(), known_plans.end(), plan_name) ==
      known_plans.end()) {
    throw InvalidArgument("unknown fault plan '" + plan_name + "' (" +
                          join(known_plans, ", ") + ")");
  }
  std::uint64_t seed = 0;
  read_number(args, "seed", UINT64_MAX, seed);

  // --apps takes a list; --app (the single-app spelling every other verb
  // uses) works too.
  std::vector<apps::PaperApp> fault_apps;
  const std::string app_list =
      args.flag("apps") ? args.get("apps") : args.get("app");
  if (!app_list.empty()) {
    for (const std::string& name : split_list(app_list))
      fault_apps.push_back(apps::paper_app_from_name(name));
  } else {
    fault_apps = apps::all_paper_apps();
  }
  std::vector<analyzer::StrategyKind> fault_strategies;
  if (args.flag("strategies")) {
    for (const std::string& name : split_list(args.get("strategies")))
      fault_strategies.push_back(analyzer::strategy_from_name(name));
  } else {
    fault_strategies = analyzer::paper_strategies();
  }

  std::vector<sweep::Scenario> scenarios = sweep::enumerate_matrix(
      fault_apps, fault_strategies, {args.get("platform", "reference")},
      {args.flag("sync")}, args.flag("small"));
  for (sweep::Scenario& scenario : scenarios) {
    scenario.fault_plan = plan_name;
    scenario.fault_seed = seed;
    read_number(args, "tasks", kMaxTasks, scenario.task_count);
  }

  sweep::SweepOptions options;
  options.parallel = !args.flag("serial");
  read_number(args, "jobs", kMaxThreads, options.jobs);
  options.use_cache = !args.flag("no-cache");
  options.cache_dir = args.get("cache-dir", ".hs-sweep-cache");

  const sweep::SweepEngine engine(options);
  const sweep::SweepRun run = engine.run(scenarios);

  if (args.flag("json") && args.get("json").empty()) {
    std::cout << sweep::sweep_to_json(run) << "\n";
    return run.summary.failed == 0 ? 0 : 1;
  }

  std::cout << "fault plan: " << plan_name;
  if (seed != 0) std::cout << " (seed " << seed << ")";
  std::cout << " — degradation = faulted time / fault-free time; DNF = run "
               "did not complete\n\n";

  Table table({"scenario", "status", "baseline (ms)", "faulted (ms)",
               "degradation", "retries", "migrated", "repart.", "abandoned"});
  for (const sweep::ScenarioOutcome& outcome : run.outcomes) {
    const sweep::ScenarioMetrics& metrics = outcome.metrics;
    std::string degradation = "-";
    if (outcome.ok()) {
      degradation = metrics.run_completed
                        ? format_fixed(metrics.degradation_ratio, 2) + "x"
                        : "DNF";
    }
    table.add_row(
        {outcome.scenario.label(),
         sweep::scenario_status_name(outcome.status),
         outcome.ok() ? format_fixed(metrics.baseline_time_ms, 2) : "-",
         outcome.ok() ? format_fixed(metrics.time_ms, 2) : "-", degradation,
         outcome.ok() ? std::to_string(metrics.fault_retries) : "-",
         outcome.ok() ? std::to_string(metrics.migrated_tasks) : "-",
         outcome.ok() ? std::to_string(metrics.repartitioned_tasks) : "-",
         outcome.ok() ? std::to_string(metrics.abandoned_tasks) : "-"});
  }
  table.print(std::cout, args.flag("csv"));

  const sweep::SweepSummary& summary = run.summary;
  std::cout << "\nfaults: " << summary.scenarios << " scenario(s) in "
            << format_fixed(summary.wall_ms, 1) << " ms — " << summary.ok
            << " ok, " << summary.inapplicable << " inapplicable, "
            << summary.failed << " failed; " << summary.cache_hits
            << " cache hit(s), " << summary.cache_misses << " miss(es), "
            << summary.cache_evictions << " evicted, " << summary.computed
            << " computed\n";

  if (args.flag("json")) {
    std::ofstream file(args.get("json"));
    HS_REQUIRE(file.good(),
               "cannot open '" << args.get("json") << "' for writing");
    file << sweep::sweep_to_json(run) << "\n";
    std::cout << "wrote JSON to " << args.get("json") << "\n";
  }
  return run.summary.failed == 0 ? 0 : 1;
}

int cmd_metrics(const Args& args) {
  const std::string format = args.get("format", "prom");
  if (format != "prom" && format != "json")
    throw InvalidArgument("--format must be prom or json, got '" + format +
                          "'");
  const hw::PlatformSpec platform = platform_by_name(args.get("platform"));
  const analyzer::StrategyKind kind =
      strategy_by_name(args.get("strategy", "dp-perf"));
  strategies::StrategyOptions options = options_from(args);

  const std::string plan_name = args.get("plan", "none");
  if (plan_name != "none") {
    const std::vector<std::string> known_plans = faults::named_fault_plans();
    if (std::find(known_plans.begin(), known_plans.end(), plan_name) ==
        known_plans.end()) {
      throw InvalidArgument("unknown fault plan '" + plan_name + "' (" +
                            join(known_plans, ", ") + ", none)");
    }
    // A healthy twin fixes the horizon the plan's relative offsets resolve
    // against — same convention as the faults verb and the sweep engine.
    auto baseline_app = make_app(args, platform);
    strategies::StrategyRunner baseline(*baseline_app, options);
    const SimTime horizon =
        std::max<SimTime>(1, baseline.run(kind).report.makespan);
    std::uint64_t seed = 0;
    read_number(args, "seed", UINT64_MAX, seed);
    options.fault_plan = faults::make_named_plan(plan_name, horizon, seed,
                                                 platform.device_count());
  }

  auto app =
      make_app(args, platform, /*record_trace=*/false, /*record_obs=*/true);
  strategies::StrategyRunner runner(*app, options);
  const strategies::StrategyResult result = runner.run(kind);
  HS_REQUIRE(result.report.obs != nullptr,
             "run produced no observability data");
  const obs::RunObservability& observed = *result.report.obs;

  const std::vector<std::string> problems = observed.metrics.validate();
  if (!problems.empty()) {
    std::cerr << "metrics registry failed validation:\n";
    for (const std::string& problem : problems)
      std::cerr << "  " << problem << "\n";
    return 3;
  }

  const std::string output = format == "prom"
                                 ? observed.metrics.to_prometheus()
                                 : observed.to_json().dump() + "\n";
  const std::string out = args.get("out");
  if (!out.empty()) {
    std::ofstream file(out);
    HS_REQUIRE(file.good(), "cannot open '" << out << "' for writing");
    file << output;
    std::cout << "wrote " << format << " metrics to " << out << "\n";
  } else {
    std::cout << output;
  }
  return 0;
}

int cmd_fuzz(const Args& args) {
  if (args.flag("oracles")) {
    for (const std::string& name : check::oracle_names())
      std::cout << name << "\n";
    return 0;
  }

  // Repro mode: replay a previously written counterexample file.
  if (args.flag("repro")) {
    std::ifstream file(args.get("repro"));
    HS_REQUIRE(file.good(),
               "cannot open repro '" << args.get("repro") << "'");
    std::ostringstream text;
    text << file.rdbuf();
    const json::Value document = json::Value::parse(text.str());
    // Accept both a bare case document and a full counterexample file.
    const check::FuzzCase c =
        document.find("case") != nullptr
            ? check::FuzzCase::from_json(document.at("case"))
            : check::FuzzCase::from_json(document);
    // Explored counterexamples embed the replay spec of their failing
    // schedule; replaying without it would check the canonical schedule.
    rt::ExploreSpec explore;
    if (const json::Value* spec = document.find("explore"))
      explore = rt::ExploreSpec::from_json(*spec);
    std::cout << "replaying " << c.describe() << "\n";
    if (explore.active())
      std::cout << "schedule replay: #" << explore.schedule << " with "
                << explore.decisions.size() << " recorded decision(s)\n";
    const std::vector<check::Violation> violations =
        check::replay_case(c, explore);
    if (violations.empty()) {
      std::cout << "repro passes all oracles (fixed or stale)\n";
      return 0;
    }
    for (const check::Violation& violation : violations)
      std::cout << "VIOLATION " << violation.oracle << ": "
                << violation.detail << "\n";
    return 4;
  }

  check::FuzzOptions options;
  read_number(args, "seed", UINT64_MAX, options.base_seed);
  read_number(args, "iters", kMaxRepeats, options.iters);
  options.shrink = !args.flag("no-shrink");
  options.plant = args.get("plant");
  if (args.flag("explore"))
    options.explore = rt::explore_mode_from_name(args.get("explore"));
  read_number(args, "schedules", kMaxRepeats, options.schedules);
  options.serve = args.flag("serve");
  if (args.flag("corpus")) {
    std::ifstream file(args.get("corpus"));
    HS_REQUIRE(file.good(),
               "cannot open corpus '" << args.get("corpus") << "'");
    std::ostringstream text;
    text << file.rdbuf();
    options.seeds = check::parse_corpus(text.str());
    HS_REQUIRE(!options.seeds.empty(),
               "corpus '" << args.get("corpus") << "' contains no seeds");
  }

  const check::FuzzResult result = check::run_fuzz(options);
  std::cout << result.render();
  if (result.clean()) return 0;

  const check::Counterexample& cx = result.counterexamples.front();
  const std::string out = args.get(
      "out", "fuzz-repro-" + std::to_string(cx.original.seed) + ".json");
  std::ofstream file(out);
  HS_REQUIRE(file.good(), "cannot open '" << out << "' for writing");
  file << cx.to_json().dump() << "\n";
  std::cout << "repro written to " << out << "\n";
  return 4;
}

int cmd_explain(const Args& args) {
  std::cout << serve::answer(request_from_args(args, "explain"));
  return 0;
}

// ---------------------------------------------------------------------------
// The serve daemon and its client verb.
// ---------------------------------------------------------------------------

volatile std::sig_atomic_t g_signal_received = 0;

void handle_signal(int) { g_signal_received = 1; }

log::Level log_level_from_name(const std::string& name) {
  if (name == "debug") return log::Level::kDebug;
  if (name == "info") return log::Level::kInfo;
  if (name == "warn") return log::Level::kWarn;
  if (name == "error") return log::Level::kError;
  if (name == "off") return log::Level::kOff;
  throw InvalidArgument("unknown log level '" + name +
                        "' (debug, info, warn, error, off)");
}

int cmd_serve(const Args& args) {
  serve::ServeOptions options;
  read_number(args, "port", kMaxPort, options.port);
  options.host = args.get("host", "127.0.0.1");
  read_number(args, "workers", kMaxThreads, options.workers);
  read_number(args, "max-queue", kMaxQueue, options.max_queue);
  options.cache_dir = args.get("cache-dir");
  read_number(args, "trace-capacity", kMaxQueue, options.trace_capacity);

  // Structured daemon logging: text lines by default, JSON lines for log
  // shippers; every request line carries its trace_id either way.
  const std::string log_format = args.get("log-format", "text");
  if (log_format == "json") {
    obs::set_log_format(obs::LogFormat::kJson);
  } else if (log_format != "text") {
    throw InvalidArgument("unknown --log-format '" + log_format +
                          "' (text, json)");
  }
  if (args.flag("log-level"))
    log::set_level(log_level_from_name(args.get("log-level")));

  // A network daemon must survive a peer (or its own stdout pipe)
  // vanishing mid-write; sockets use MSG_NOSIGNAL, stdout needs this.
  std::signal(SIGPIPE, SIG_IGN);
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  serve::Server server(options);
  server.start();
  if (args.flag("announce-port")) {
    // Machine-readable handshake for scripts: first stdout line names the
    // bound (possibly kernel-chosen) port.
    std::cout << "PORT " << server.port() << "\n" << std::flush;
  }

  // Tick between signal flag and in-band shutdown requests; a signal
  // handler cannot touch the server directly.
  while (!server.wait_for_shutdown_request(/*timeout_ms=*/50)) {
    if (g_signal_received) {
      server.request_shutdown();
      break;
    }
  }
  server.wait();

  const std::string metrics_out = args.get("metrics-out");
  if (!metrics_out.empty()) {
    std::ofstream file(metrics_out);
    HS_REQUIRE(file.good(),
               "cannot open '" << metrics_out << "' for writing");
    file << server.final_snapshot();
    std::cerr << "serve: final metrics snapshot written to " << metrics_out
              << "\n";
  } else {
    // The final snapshot goes to stderr so a script consuming stdout (the
    // PORT handshake) never has to parse around it.
    std::cerr << server.final_snapshot();
  }
  return 0;
}

int cmd_query(const Args& args) {
  const std::string host = args.get("host", "127.0.0.1");
  int port = 0;
  if (args.flag("port-stdin")) {
    // Counterpart of serve --announce-port: read "PORT <n>" from stdin,
    // which lets a script pipe the daemon's stdout straight into the
    // client with no temp file or sleep.
    std::string tag;
    if (!(std::cin >> tag >> port) || tag != "PORT" || port <= 0)
      throw InvalidArgument("--port-stdin expected 'PORT <n>' on stdin");
  } else if (args.flag("port")) {
    read_number(args, "port", kMaxPort, port);
  } else {
    throw InvalidArgument("query needs --port <p> or --port-stdin");
  }

  const serve::QueryRequest request =
      request_from_args(args, args.get("op", "match"));
  try {
    serve::QueryClient client(host, port);
    const serve::QueryResponse response = client.ask(request);
    switch (response.status) {
      case serve::ResponseStatus::kOk:
        std::cout << response.output;
        if (args.flag("trace")) {
          // Fetch this request's span tree over the same connection. It
          // goes to stderr so stdout stays byte-identical to the untraced
          // invocation (the protocol's offline-equivalence contract).
          serve::QueryRequest dump;
          dump.op = "trace-dump";
          dump.trace = response.trace_id;
          const serve::QueryResponse tree = client.ask(dump);
          if (tree.status == serve::ResponseStatus::kOk) {
            std::cerr << tree.output;
          } else {
            std::cerr << "trace-dump failed: " << tree.error << "\n";
          }
        }
        break;
      case serve::ResponseStatus::kError:
        std::cerr << "error: " << response.error << "\n";
        return 1;
      case serve::ResponseStatus::kOverload:
        std::cerr << "overloaded: " << response.error << " (retry after "
                  << response.retry_after_ms << " ms)\n";
        return 5;
      case serve::ResponseStatus::kShuttingDown:
        std::cerr << "daemon is shutting down\n";
        return 5;
    }
    if (args.flag("then-shutdown")) {
      serve::QueryRequest shutdown;
      shutdown.op = "shutdown";
      client.ask(shutdown);
    }
    return 0;
  } catch (const Error& error) {
    // Transport-level failure (daemon unreachable / connection dropped):
    // distinct exit code so scripts can tell it from a refused query.
    std::cerr << "error: " << error.what() << "\n";
    return 6;
  }
}

// ---------------------------------------------------------------------------
// Verb table: single source of truth for dispatch AND the usage string, so
// the usage line cannot drift from what main() actually accepts.
// ---------------------------------------------------------------------------

using Flags = std::vector<std::string>;

Flags operator+(Flags flags, const Flags& more) {
  flags.insert(flags.end(), more.begin(), more.end());
  return flags;
}

/// Flags the shared helpers read: a verb calling one accepts its flags.
/// make_app + platform_by_name + options_from (the offline strategy verbs).
const Flags kAppFlags = {"app", "small", "platform", "sync", "tasks"};
/// request_from_args (match / explain / analyze and the query client).
const Flags kRequestFlags = {"app",   "platform", "strategy", "sync",
                             "small", "tasks",    "gantt",    "json"};
/// Grid axes and SweepOptions knobs that sweep and faults both read.
const Flags kSweepFlags = {"apps",      "strategies", "small", "tasks",
                           "serial",    "jobs",       "no-cache",
                           "cache-dir", "json",       "csv"};

struct Verb {
  const char* name;
  int (*run)(const Args&);
  Flags flags;  ///< every --flag the verb (or a helper it calls) reads
};

const std::vector<Verb>& verb_table() {
  static const std::vector<Verb> kVerbs = {
      {"list", [](const Args&) { return cmd_list(); }, {}},
      {"catalog", cmd_catalog, {"csv"}},
      {"match", cmd_match, kRequestFlags},
      {"run", cmd_run, kAppFlags + Flags{"strategy", "json"}},
      {"compare", cmd_compare, kAppFlags + Flags{"csv"}},
      {"trace", cmd_trace, kAppFlags + Flags{"strategy", "out"}},
      {"analyze", cmd_analyze, kRequestFlags},
      {"tune", cmd_tune, kAppFlags + Flags{"strategy", "csv"}},
      {"sweep", cmd_sweep,
       kSweepFlags + Flags{"platforms", "sync-mode"}},
      {"faults", cmd_faults,
       kSweepFlags + Flags{"plan", "seed", "app", "platform", "sync"}},
      {"metrics", cmd_metrics,
       kAppFlags + Flags{"format", "strategy", "plan", "seed", "out"}},
      {"explain", cmd_explain, kRequestFlags},
      {"fuzz", cmd_fuzz,
       {"oracles", "repro", "seed", "iters", "no-shrink", "plant", "explore",
        "schedules", "serve", "corpus", "out"}},
      {"serve", cmd_serve,
       {"port", "host", "workers", "max-queue", "cache-dir", "trace-capacity",
        "log-format", "log-level", "announce-port", "metrics-out"}},
      {"query", cmd_query,
       kRequestFlags + Flags{"host", "port", "port-stdin", "op",
                             "then-shutdown", "trace"}},
  };
  return kVerbs;
}

std::string usage_string() {
  std::vector<std::string> names;
  for (const Verb& verb : verb_table()) names.push_back(verb.name);
  return "usage: hetsched_cli <" + join(names, "|") +
         "> [--app <name>] [--strategy <s>] [--platform <p>] [--sync] "
         "[--tasks <m>] [--small] [--csv] [--out <file>]\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    for (const Verb& verb : verb_table()) {
      if (args.command != verb.name) continue;
      for (const auto& [name, value] : args.options) {
        if (std::find(verb.flags.begin(), verb.flags.end(), name) ==
            verb.flags.end()) {
          std::cerr << "error: unknown flag --" << name << " for "
                    << verb.name << "\n"
                    << usage_string();
          return 2;
        }
      }
      return verb.run(args);
    }
    std::cerr << usage_string();
    return args.command.empty() ? 0 : 2;
  } catch (const hetsched::Error& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
