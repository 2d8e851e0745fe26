#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "faults/fault_plan.hpp"
#include "hw/platform.hpp"
#include "obs/observability.hpp"
#include "obs/validate.hpp"
#include "strategies/strategy_runner.hpp"
#include "sweep/cache.hpp"
#include "sweep/scenario.hpp"
#include "sweep/sweep.hpp"

/// End-to-end observability contracts: determinism of the exports, span
/// well-formedness under faults, probe-and-forgive EMA recovery, and the
/// sweep cache counters.
namespace hetsched::obs {
namespace {

/// One faulted DP-Perf run of small BlackScholes with observability on;
/// returns the combined obs export.
std::string faulted_obs_json() {
  const hw::PlatformSpec platform = hw::platform_by_name("reference");
  apps::Application::Config config =
      apps::test_config(apps::PaperApp::kBlackScholes);
  config.record_observability = true;
  const auto app =
      apps::make_paper_app(apps::PaperApp::kBlackScholes, platform, config);
  strategies::StrategyOptions options;
  options.fault_plan =
      faults::make_named_plan("gpu-slowdown", /*horizon=*/1'000'000, 0);
  strategies::StrategyRunner runner(*app, options);
  const strategies::StrategyResult result =
      runner.run(analyzer::StrategyKind::kDPPerf);
  EXPECT_NE(result.report.obs, nullptr);
  return result.report.obs ? result.report.obs->to_json().dump() : "";
}

TEST(ObservabilityDeterminism, IdenticalRunsExportIdenticalBytes) {
  const std::string first = faulted_obs_json();
  const std::string second = faulted_obs_json();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  // The export carries all three sections.
  EXPECT_NE(first.find("\"metrics\""), std::string::npos);
  EXPECT_NE(first.find("\"spans\""), std::string::npos);
  EXPECT_NE(first.find("\"placements\""), std::string::npos);
}

TEST(ObservabilitySpans, ChainsWellFormedUnderDeviceFailure) {
  const hw::PlatformSpec platform = hw::platform_by_name("reference");
  // Healthy baseline fixes the horizon so the failure lands mid-run.
  const auto healthy = apps::make_paper_app(
      apps::PaperApp::kMatrixMul, platform,
      apps::test_config(apps::PaperApp::kMatrixMul));
  strategies::StrategyRunner baseline(*healthy);
  const SimTime horizon =
      baseline.run(analyzer::StrategyKind::kDPPerf).report.makespan;
  ASSERT_GT(horizon, 0);

  apps::Application::Config config =
      apps::test_config(apps::PaperApp::kMatrixMul);
  config.record_observability = true;
  const auto app =
      apps::make_paper_app(apps::PaperApp::kMatrixMul, platform, config);
  strategies::StrategyOptions options;
  options.fault_plan = faults::make_named_plan("gpu-failure", horizon, 0);
  strategies::StrategyRunner runner(*app, options);
  const strategies::StrategyResult result =
      runner.run(analyzer::StrategyKind::kDPPerf);
  ASSERT_NE(result.report.obs, nullptr);
  EXPECT_GT(result.report.faults.injected_faults, 0);

  const SpanLog& spans = result.report.obs->spans;
  EXPECT_FALSE(spans.spans().empty());
  std::vector<std::string> problems;
  append_span_violations(spans, problems);
  EXPECT_TRUE(problems.empty())
      << problems.size() << " violation(s), first: " << problems.front();
}

TEST(ObservabilitySweep, FaultedScenariosPassTraceValidation) {
  sweep::SweepOptions options;
  options.use_cache = false;
  options.parallel = false;
  options.record_trace = true;
  const sweep::SweepEngine engine(options);
  for (const char* plan : {"gpu-failure", "storm"}) {
    sweep::Scenario scenario;
    scenario.app = apps::PaperApp::kMatrixMul;
    scenario.strategy = analyzer::StrategyKind::kDPPerf;
    scenario.small = true;
    scenario.fault_plan = plan;
    const sweep::ScenarioOutcome outcome = engine.compute(scenario);
    ASSERT_TRUE(outcome.ok()) << plan << ": " << outcome.error;
    EXPECT_TRUE(outcome.trace_violations.empty())
        << plan << ": " << outcome.trace_violations.size()
        << " violation(s), first: " << outcome.trace_violations.front();
  }
}

TEST(ObservabilityEma, EstimateDipsAndRecoversUnderGpuSlowdown) {
  const hw::PlatformSpec platform = hw::platform_by_name("reference");
  // Healthy twin fixes the horizon, exactly like the metrics verb.
  const auto healthy = apps::make_paper_app(
      apps::PaperApp::kBlackScholes, platform,
      apps::paper_config(apps::PaperApp::kBlackScholes));
  strategies::StrategyRunner baseline(*healthy);
  const SimTime horizon =
      baseline.run(analyzer::StrategyKind::kDPPerf).report.makespan;
  ASSERT_GT(horizon, 0);

  apps::Application::Config config =
      apps::paper_config(apps::PaperApp::kBlackScholes);
  config.record_observability = true;
  const auto app =
      apps::make_paper_app(apps::PaperApp::kBlackScholes, platform, config);
  strategies::StrategyOptions options;
  options.fault_plan = faults::make_named_plan("gpu-slowdown", horizon, 0);
  strategies::StrategyRunner runner(*app, options);
  const strategies::StrategyResult result =
      runner.run(analyzer::StrategyKind::kDPPerf);
  ASSERT_NE(result.report.obs, nullptr);
  const MetricsRegistry& metrics = result.report.obs->metrics;

  // The perturbation was noticed and forgiven at least once.
  EXPECT_GT(metrics.counter("divergence_events"), 0);
  EXPECT_GT(metrics.counter("ema_reseeds"), 0);

  // The accelerator's EMA counter track dips inside the fault window and
  // recovers once the perturbation ends.
  const std::string accel = platform.accelerators.front().name;
  const CounterTrack* track = nullptr;
  for (const auto& [key, candidate] : metrics.tracks()) {
    if (key.rfind("ema_items_per_s", 0) == 0 &&
        key.find(accel) != std::string::npos) {
      track = &candidate;
    }
  }
  ASSERT_NE(track, nullptr) << "no EMA track for " << accel;
  const auto series = track->series();
  ASSERT_GE(series.size(), 3u);
  double low = series.front().value;
  double high = series.front().value;
  for (const auto& sample : series) {
    low = std::min(low, sample.value);
    high = std::max(high, sample.value);
  }
  const double last = series.back().value;
  EXPECT_LT(low, high * 0.99) << "estimate never dipped";
  EXPECT_GT(last, low) << "estimate never recovered";
  EXPECT_GT(last, high * 0.9) << "estimate did not return to healthy";
}

TEST(SweepCacheCounters, LoadStoreEvictAccounting) {
  const std::string dir = ::testing::TempDir() + "/hs_obs_cache_counters";
  std::filesystem::remove_all(dir);
  const sweep::ResultCache cache(dir);
  EXPECT_FALSE(cache.load("key"));  // no entry: miss
  cache.store("key", "payload");
  const auto loaded = cache.load("key");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, "payload");

  // A corrupt file is a miss AND gets deleted (eviction).
  {
    std::ofstream file(cache.path_for("key"), std::ios::trunc);
    file << "garbage";
  }
  EXPECT_FALSE(cache.load("key"));
  EXPECT_FALSE(cache.load("key"));  // already deleted: plain miss

  sweep::CacheCounters counters = cache.counters();
  EXPECT_EQ(counters.hits, 1);
  EXPECT_EQ(counters.misses, 3);
  EXPECT_EQ(counters.stores, 1);
  EXPECT_EQ(counters.evictions, 1);

  cache.evict("key");  // nothing on disk: not counted
  EXPECT_EQ(cache.counters().evictions, 1);
  cache.store("key", "payload");
  cache.evict("key");
  EXPECT_EQ(cache.counters().evictions, 2);
}

TEST(SweepCacheCounters, SweepSummarySurfacesHitsMissesEvictions) {
  const std::string dir = ::testing::TempDir() + "/hs_obs_cache_summary";
  std::filesystem::remove_all(dir);

  sweep::SweepOptions options;
  options.use_cache = true;
  options.cache_dir = dir;
  options.parallel = false;
  const sweep::SweepEngine engine(options);
  sweep::Scenario scenario;
  scenario.app = apps::PaperApp::kStreamSeq;
  scenario.strategy = analyzer::StrategyKind::kOnlyCpu;
  scenario.small = true;

  const sweep::SweepRun first = engine.run({scenario});
  EXPECT_EQ(first.summary.cache_hits, 0u);
  EXPECT_EQ(first.summary.cache_misses, 1u);
  EXPECT_EQ(first.summary.cache_evictions, 0u);

  const sweep::SweepRun second = engine.run({scenario});
  EXPECT_EQ(second.summary.cache_hits, 1u);
  EXPECT_EQ(second.summary.cache_misses, 0u);

  // Corrupting the entry surfaces as one miss plus one eviction.
  {
    sweep::ResultCache cache(dir);
    std::ofstream file(cache.path_for(sweep::scenario_key(scenario)),
                       std::ios::trunc);
    file << "junk";
  }
  const sweep::SweepRun third = engine.run({scenario});
  EXPECT_EQ(third.summary.cache_hits, 0u);
  EXPECT_EQ(third.summary.cache_misses, 1u);
  EXPECT_EQ(third.summary.cache_evictions, 1u);

  // The summary JSON carries the counters.
  const std::string doc = sweep::sweep_to_json(third);
  EXPECT_NE(doc.find("\"cache_misses\":1"), std::string::npos);
  EXPECT_NE(doc.find("\"cache_evictions\":1"), std::string::npos);
}

}  // namespace
}  // namespace hetsched::obs
