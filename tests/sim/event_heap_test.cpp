#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/inline_function.hpp"
#include "sim/engine.hpp"

/// Event-core suite (ctest -L simcore): the engine's hand-rolled binary
/// heap must fire events in exactly the order a stable sort by (at, seq)
/// would produce — the contract the old std::priority_queue implementation
/// established and every determinism suite depends on.
namespace hetsched::sim {
namespace {

/// Deterministic 64-bit mixer (splitmix64) so the reference schedules are
/// reproducible without seeding global state.
std::uint64_t mix(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

TEST(EventHeap, FiringOrderMatchesSortedReference) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Engine engine;
    std::uint64_t rng = seed;
    // Few distinct timestamps => many ties; the seq tie-break does the work.
    std::vector<std::pair<SimTime, std::size_t>> reference;
    std::vector<std::size_t> fired;
    const std::size_t count = 50 + mix(rng) % 200;
    for (std::size_t i = 0; i < count; ++i) {
      const SimTime at = static_cast<SimTime>(mix(rng) % 17);
      reference.emplace_back(at, i);
      engine.schedule_at(at, [&fired, i] { fired.push_back(i); });
    }
    std::stable_sort(reference.begin(), reference.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    engine.run();
    ASSERT_EQ(fired.size(), reference.size());
    for (std::size_t i = 0; i < fired.size(); ++i)
      EXPECT_EQ(fired[i], reference[i].second) << "seed " << seed
                                               << " position " << i;
  }
}

TEST(EventHeap, InterleavedSchedulingKeepsCanonicalOrder) {
  // Events scheduling further events (the executor's actual pattern): the
  // order must equal a global stable sort of (at, scheduling order), which
  // here means every event fires in nondecreasing time, FIFO within ties.
  Engine engine;
  std::vector<std::pair<SimTime, int>> fired;
  int label = 0;
  std::function<void(SimTime, int)> spawn = [&](SimTime /*at*/, int depth) {
    fired.emplace_back(engine.now(), label++);
    if (depth >= 3) return;
    engine.schedule_in(2, [&spawn, depth] { spawn(2, depth + 1); });
    engine.schedule_in(0, [&spawn, depth] { spawn(0, depth + 1); });
    engine.schedule_in(2, [&spawn, depth] { spawn(2, depth + 1); });
  };
  engine.schedule_at(0, [&spawn] { spawn(0, 0); });
  engine.run();
  for (std::size_t i = 1; i < fired.size(); ++i)
    EXPECT_LE(fired[i - 1].first, fired[i].first) << "at position " << i;
  EXPECT_EQ(engine.fired_events(), fired.size());
}

TEST(EventHeap, ReserveDoesNotDisturbOrder) {
  Engine reserved;
  Engine plain;
  reserved.reserve_events(1024);
  std::vector<int> from_reserved;
  std::vector<int> from_plain;
  std::uint64_t rng = 7;
  for (int i = 0; i < 100; ++i) {
    const SimTime at = static_cast<SimTime>(mix(rng) % 5);
    reserved.schedule_at(at, [&from_reserved, i] {
      from_reserved.push_back(i);
    });
    plain.schedule_at(at, [&from_plain, i] { from_plain.push_back(i); });
  }
  reserved.run();
  plain.run();
  EXPECT_EQ(from_reserved, from_plain);
}

TEST(InlineFunction, InvokesInlineCallable) {
  int hits = 0;
  InlineFunction<void()> fn([&hits] { ++hits; });
  EXPECT_TRUE(static_cast<bool>(fn));
  EXPECT_TRUE(fn != nullptr);
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFunction, DefaultAndNullptrAreEmpty) {
  InlineFunction<void()> empty;
  InlineFunction<void()> null_built(nullptr);
  EXPECT_FALSE(static_cast<bool>(empty));
  EXPECT_TRUE(empty == nullptr);
  EXPECT_TRUE(null_built == nullptr);
}

TEST(InlineFunction, MoveTransfersOwnership) {
  int hits = 0;
  InlineFunction<void()> a([&hits] { ++hits; });
  InlineFunction<void()> b(std::move(a));
  EXPECT_TRUE(a == nullptr);  // NOLINT(bugprone-use-after-move)
  b();
  EXPECT_EQ(hits, 1);
  InlineFunction<void()> c;
  c = std::move(b);
  EXPECT_TRUE(b == nullptr);  // NOLINT(bugprone-use-after-move)
  c();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFunction, NonTrivialCallableIsDestroyed) {
  // A shared_ptr capture is not trivially copyable: the wrapper must run
  // its destructor (once) on reset and relocate it correctly on move.
  auto token = std::make_shared<int>(42);
  std::weak_ptr<int> watch = token;
  {
    InlineFunction<int()> fn([token] { return *token; });
    token.reset();
    EXPECT_FALSE(watch.expired());
    InlineFunction<int()> moved(std::move(fn));
    EXPECT_EQ(moved(), 42);
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

TEST(InlineFunction, ReturnsValuesAndTakesArguments) {
  InlineFunction<int(int, int)> add([](int a, int b) { return a + b; });
  EXPECT_EQ(add(2, 3), 5);
}

}  // namespace
}  // namespace hetsched::sim
