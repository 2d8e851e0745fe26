#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/single_flight.hpp"
#include "obs/metrics.hpp"
#include "sweep/sweep.hpp"

/// Tests for the in-run scenario memo: single-flight semantics, shared
/// baseline twins, input-list dedup, and the contract that memoized results
/// are byte-identical to the memo-free reference path.
namespace hetsched::sweep {
namespace {

SweepOptions serial_options() {
  SweepOptions options;
  options.parallel = false;
  options.use_cache = false;
  return options;
}

Scenario storm_scenario(std::uint64_t seed) {
  Scenario scenario;
  scenario.app = apps::PaperApp::kMatrixMul;
  scenario.strategy = analyzer::StrategyKind::kDPPerf;
  scenario.small = true;
  scenario.fault_plan = "storm";
  scenario.fault_seed = seed;
  return scenario;
}

Scenario healthy_twin_of(const Scenario& faulted) {
  Scenario healthy = faulted;
  healthy.fault_plan.clear();
  healthy.fault_seed = 0;
  return healthy;
}

// The sweep's in-run memo is a SingleFlight<ScenarioOutcome>.
using ScenarioMemo = SingleFlight<ScenarioOutcome>;

TEST(ScenarioMemo, SingleFlightComputesOncePerKey) {
  ScenarioMemo memo;
  std::atomic<int> computes{0};
  std::atomic<int> shared_lookups{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      const ScenarioMemo::Result lookup =
          memo.get_or_compute("the-key", [&computes] {
            computes.fetch_add(1);
            ScenarioOutcome outcome;
            outcome.error = "sentinel";
            return outcome;
          });
      EXPECT_EQ(lookup.value->error, "sentinel");
      if (!lookup.owner) shared_lookups.fetch_add(1);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(shared_lookups.load(), 7);
  EXPECT_EQ(memo.entries(), 1u);
}

TEST(ScenarioMemo, DistinctKeysComputeIndependently) {
  ScenarioMemo memo;
  int computes = 0;
  const auto make = [&computes] {
    ++computes;
    return ScenarioOutcome{};
  };
  EXPECT_TRUE(memo.get_or_compute("a", make).owner);
  EXPECT_TRUE(memo.get_or_compute("b", make).owner);
  EXPECT_FALSE(memo.get_or_compute("a", make).owner);
  EXPECT_EQ(computes, 2);
  EXPECT_EQ(memo.entries(), 2u);
}

// Two healthy twins, each shared by two fault seeds: every twin lookup is
// counted once, as a compute (the first) or a hit (the rest).
TEST(ScenarioMemo, TwinLookupCountersSplitHitsFromComputes) {
  Scenario other_app = storm_scenario(1);
  other_app.app = apps::PaperApp::kBlackScholes;
  Scenario other_app_seed2 = other_app;
  other_app_seed2.fault_seed = 2;
  const SweepRun run = SweepEngine(serial_options())
                           .run({storm_scenario(1), other_app,
                                 storm_scenario(2), other_app_seed2});
  EXPECT_EQ(run.summary.twin_computes, 2u);
  EXPECT_EQ(run.summary.twin_memo_hits, 2u);
}

// The acceptance bar: S faulted scenarios sharing one healthy twin perform
// exactly one baseline computation.
TEST(SweepMemo, FaultSeedsShareOneBaselineTwin) {
  constexpr int kSeeds = 5;
  std::vector<Scenario> scenarios;
  for (int seed = 1; seed <= kSeeds; ++seed)
    scenarios.push_back(storm_scenario(static_cast<std::uint64_t>(seed)));

  const SweepRun run = SweepEngine(serial_options()).run(scenarios);
  EXPECT_EQ(run.summary.ok, static_cast<std::size_t>(kSeeds));
  EXPECT_EQ(run.summary.twin_computes, 1u);
  EXPECT_EQ(run.summary.twin_memo_hits,
            static_cast<std::size_t>(kSeeds - 1));
  // Every faulted outcome was measured against the same baseline.
  for (const ScenarioOutcome& outcome : run.outcomes) {
    ASSERT_TRUE(outcome.ok()) << outcome.error;
    EXPECT_EQ(outcome.metrics.baseline_time_ms,
              run.outcomes[0].metrics.baseline_time_ms);
  }
}

TEST(SweepMemo, ParallelRunSharesTwinsThreadSafely) {
  constexpr int kSeeds = 6;
  std::vector<Scenario> scenarios;
  for (int seed = 1; seed <= kSeeds; ++seed)
    scenarios.push_back(storm_scenario(static_cast<std::uint64_t>(seed)));

  SweepOptions options = serial_options();
  options.parallel = true;
  const SweepRun run = SweepEngine(options).run(scenarios);
  EXPECT_EQ(run.summary.ok, static_cast<std::size_t>(kSeeds));
  EXPECT_EQ(run.summary.twin_computes, 1u);
  EXPECT_EQ(run.summary.twin_memo_hits,
            static_cast<std::size_t>(kSeeds - 1));
}

// Memoized results must be byte-identical to the memo-free reference path
// (SweepEngine::compute), fault axis included.
TEST(SweepMemo, MemoizedOutcomesMatchReferenceCompute) {
  std::vector<Scenario> scenarios = {
      storm_scenario(1), storm_scenario(2),
      healthy_twin_of(storm_scenario(1))};
  const SweepEngine engine(serial_options());
  const SweepRun run = engine.run(scenarios);
  ASSERT_EQ(run.outcomes.size(), scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const ScenarioOutcome reference = engine.compute(scenarios[i]);
    EXPECT_EQ(run.outcomes[i].to_payload(), reference.to_payload())
        << scenarios[i].label();
  }
}

TEST(SweepMemo, DuplicateInputScenariosComputeOnce) {
  const Scenario scenario = healthy_twin_of(storm_scenario(1));
  const std::vector<Scenario> scenarios = {scenario, scenario, scenario};
  const SweepRun run = SweepEngine(serial_options()).run(scenarios);
  EXPECT_EQ(run.summary.computed, 1u);
  EXPECT_EQ(run.summary.scenario_dedup_hits, 2u);
  EXPECT_FALSE(run.outcomes[0].memo_hit);
  EXPECT_TRUE(run.outcomes[1].memo_hit);
  EXPECT_TRUE(run.outcomes[2].memo_hit);
  EXPECT_EQ(run.outcomes[1].to_payload(), run.outcomes[0].to_payload());
  EXPECT_EQ(run.outcomes[2].to_payload(), run.outcomes[0].to_payload());
}

// A healthy scenario that doubles as another scenario's baseline twin is
// computed once, whichever side gets there first.
TEST(SweepMemo, TopLevelScenarioSharesWithItsTwin) {
  const Scenario faulted = storm_scenario(3);
  const Scenario healthy = healthy_twin_of(faulted);

  // Healthy first: the faulted scenario's twin lookup hits the memo.
  {
    const SweepRun run =
        SweepEngine(serial_options()).run({healthy, faulted});
    EXPECT_EQ(run.summary.computed, 2u);
    EXPECT_EQ(run.summary.twin_computes, 0u);
    EXPECT_EQ(run.summary.twin_memo_hits, 1u);
    EXPECT_EQ(run.summary.scenario_dedup_hits, 0u);
  }
  // Faulted first: the healthy top-level entry materializes from the twin
  // the faulted scenario computed (a crossover dedup hit).
  {
    const SweepRun run =
        SweepEngine(serial_options()).run({faulted, healthy});
    EXPECT_EQ(run.summary.computed, 1u);
    EXPECT_EQ(run.summary.twin_computes, 1u);
    EXPECT_EQ(run.summary.twin_memo_hits, 0u);
    EXPECT_EQ(run.summary.scenario_dedup_hits, 1u);
    EXPECT_TRUE(run.outcomes[1].memo_hit);
    // Same bytes a standalone compute of the healthy scenario produces.
    const ScenarioOutcome reference =
        SweepEngine(serial_options()).compute(healthy);
    EXPECT_EQ(run.outcomes[1].to_payload(), reference.to_payload());
  }
}

TEST(SweepMemo, SummaryCountersMirrorIntoMetricsRegistry) {
  obs::MetricsRegistry registry;
  registry.enable();
  SweepOptions options = serial_options();
  options.metrics = &registry;
  const SweepRun run = SweepEngine(options).run(
      {storm_scenario(1), storm_scenario(2), storm_scenario(2)});
  EXPECT_EQ(registry.counter(obs::kSweepTwinMemoHits),
            static_cast<std::int64_t>(run.summary.twin_memo_hits));
  EXPECT_EQ(registry.counter(obs::kSweepTwinComputes), 1);
  EXPECT_EQ(registry.counter(obs::kSweepScenarioDedupHits),
            static_cast<std::int64_t>(run.summary.scenario_dedup_hits));
  EXPECT_EQ(registry.counter(obs::kSweepCacheHits), 0);
  EXPECT_EQ(registry.counter(obs::kSweepCacheMisses), 0);
}

}  // namespace
}  // namespace hetsched::sweep
