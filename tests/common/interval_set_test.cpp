#include "common/interval_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"

namespace hetsched {
namespace {

TEST(Interval, EmptinessAndLength) {
  EXPECT_TRUE((Interval{3, 3}).empty());
  EXPECT_TRUE((Interval{5, 2}).empty());
  EXPECT_FALSE((Interval{0, 1}).empty());
  EXPECT_EQ((Interval{2, 7}).length(), 5);
  EXPECT_EQ((Interval{7, 2}).length(), 0);
}

TEST(Interval, Contains) {
  const Interval iv{10, 20};
  EXPECT_TRUE(iv.contains(10));
  EXPECT_TRUE(iv.contains(19));
  EXPECT_FALSE(iv.contains(20));
  EXPECT_FALSE(iv.contains(9));
  EXPECT_TRUE(iv.contains(Interval{12, 18}));
  EXPECT_TRUE(iv.contains(Interval{10, 20}));
  EXPECT_FALSE(iv.contains(Interval{9, 12}));
  EXPECT_TRUE(iv.contains(Interval{15, 15}));  // empty is contained anywhere
}

TEST(Interval, Overlaps) {
  const Interval iv{10, 20};
  EXPECT_TRUE(iv.overlaps({15, 25}));
  EXPECT_TRUE(iv.overlaps({5, 11}));
  EXPECT_FALSE(iv.overlaps({20, 30}));  // half-open: touching is disjoint
  EXPECT_FALSE(iv.overlaps({0, 10}));
  EXPECT_FALSE(iv.overlaps({15, 15}));  // empty never overlaps
}

TEST(Interval, Intersect) {
  EXPECT_EQ(intersect({0, 10}, {5, 15}), (Interval{5, 10}));
  EXPECT_TRUE(intersect({0, 5}, {5, 10}).empty());
}

TEST(IntervalSet, StartsEmpty) {
  IntervalSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.measure(), 0);
  EXPECT_TRUE(set.covers({3, 3}));  // empty interval trivially covered
  EXPECT_FALSE(set.covers({0, 1}));
  EXPECT_FALSE(set.intersects({0, 100}));
}

TEST(IntervalSet, InsertCoalescesAdjacent) {
  IntervalSet set;
  set.insert({0, 10});
  set.insert({10, 20});  // adjacent: must coalesce into one span
  EXPECT_EQ(set.span_count(), 1u);
  EXPECT_EQ(set.measure(), 20);
  EXPECT_TRUE(set.covers({0, 20}));
}

TEST(IntervalSet, InsertCoalescesOverlapping) {
  IntervalSet set;
  set.insert({0, 10});
  set.insert({5, 15});
  set.insert({30, 40});
  EXPECT_EQ(set.span_count(), 2u);
  EXPECT_EQ(set.measure(), 25);
}

TEST(IntervalSet, InsertBridgesGap) {
  IntervalSet set;
  set.insert({0, 10});
  set.insert({20, 30});
  set.insert({5, 25});
  EXPECT_EQ(set.span_count(), 1u);
  EXPECT_TRUE(set.covers({0, 30}));
}

TEST(IntervalSet, InsertEmptyIsNoop) {
  IntervalSet set;
  set.insert({5, 5});
  EXPECT_TRUE(set.empty());
}

TEST(IntervalSet, EraseSplitsSpan) {
  IntervalSet set{{0, 100}};
  set.erase({40, 60});
  EXPECT_EQ(set.span_count(), 2u);
  EXPECT_TRUE(set.covers({0, 40}));
  EXPECT_TRUE(set.covers({60, 100}));
  EXPECT_FALSE(set.intersects({40, 60}));
  EXPECT_EQ(set.measure(), 80);
}

TEST(IntervalSet, EraseEdges) {
  IntervalSet set{{10, 20}};
  set.erase({0, 12});
  EXPECT_TRUE(set.covers({12, 20}));
  EXPECT_FALSE(set.intersects({10, 12}));
  set.erase({18, 30});
  EXPECT_TRUE(set.covers({12, 18}));
  EXPECT_EQ(set.measure(), 6);
}

TEST(IntervalSet, EraseAcrossMultipleSpans) {
  IntervalSet set;
  set.insert({0, 10});
  set.insert({20, 30});
  set.insert({40, 50});
  set.erase({5, 45});
  EXPECT_EQ(set.to_vector(),
            (std::vector<Interval>{{0, 5}, {45, 50}}));
}

TEST(IntervalSet, GapsWithin) {
  IntervalSet set;
  set.insert({10, 20});
  set.insert({30, 40});
  const auto gaps = set.gaps_within({0, 50});
  ASSERT_EQ(gaps.size(), 3u);
  EXPECT_EQ(gaps[0], (Interval{0, 10}));
  EXPECT_EQ(gaps[1], (Interval{20, 30}));
  EXPECT_EQ(gaps[2], (Interval{40, 50}));
}

TEST(IntervalSet, GapsWithinFullyCovered) {
  IntervalSet set{{0, 100}};
  EXPECT_TRUE(set.gaps_within({10, 90}).empty());
}

TEST(IntervalSet, GapsWithinStartsInsideSpan) {
  IntervalSet set{{0, 10}};
  const auto gaps = set.gaps_within({5, 15});
  ASSERT_EQ(gaps.size(), 1u);
  EXPECT_EQ(gaps[0], (Interval{10, 15}));
}

TEST(IntervalSet, PiecesWithin) {
  IntervalSet set;
  set.insert({10, 20});
  set.insert({30, 40});
  const auto pieces = set.pieces_within({15, 35});
  ASSERT_EQ(pieces.size(), 2u);
  EXPECT_EQ(pieces[0], (Interval{15, 20}));
  EXPECT_EQ(pieces[1], (Interval{30, 35}));
}

TEST(IntervalSet, InsertAnotherSet) {
  IntervalSet a;
  a.insert({0, 10});
  IntervalSet b;
  b.insert({5, 20});
  b.insert({30, 40});
  a.insert(b);
  EXPECT_EQ(a.measure(), 30);
}

TEST(IntervalSet, CoversPartialIsFalse) {
  IntervalSet set;
  set.insert({0, 10});
  set.insert({10, 15});  // coalesces
  EXPECT_TRUE(set.covers({0, 15}));
  EXPECT_FALSE(set.covers({0, 16}));
}

/// Property: a randomized sequence of inserts/erases matches a brute-force
/// bitmap model on membership, measure, and gap structure.
TEST(IntervalSetProperty, MatchesBitmapModel) {
  constexpr std::int64_t kUniverse = 256;
  Rng rng(20150715);  // ICPP'15 vintage seed
  for (int trial = 0; trial < 50; ++trial) {
    IntervalSet set;
    std::vector<bool> model(kUniverse, false);
    for (int op = 0; op < 60; ++op) {
      const std::int64_t a = rng.uniform_int(0, kUniverse);
      const std::int64_t b = rng.uniform_int(0, kUniverse);
      const Interval iv{std::min(a, b), std::max(a, b)};
      if (rng.uniform() < 0.6) {
        set.insert(iv);
        for (std::int64_t i = iv.begin; i < iv.end; ++i) model[i] = true;
      } else {
        set.erase(iv);
        for (std::int64_t i = iv.begin; i < iv.end; ++i) model[i] = false;
      }
    }
    std::int64_t model_measure = 0;
    for (bool bit : model) model_measure += bit ? 1 : 0;
    ASSERT_EQ(set.measure(), model_measure);

    // Membership agrees point-by-point.
    for (std::int64_t i = 0; i < kUniverse; ++i) {
      ASSERT_EQ(set.covers({i, i + 1}), model[i]) << "point " << i;
    }

    // Canonical form: spans sorted, disjoint, non-adjacent.
    const auto spans = set.to_vector();
    for (std::size_t i = 0; i + 1 < spans.size(); ++i) {
      ASSERT_LT(spans[i].end, spans[i + 1].begin);
    }

    // gaps_within + pieces_within partition any probe interval.
    const Interval probe{17, 201};
    std::int64_t covered = 0;
    for (const auto& piece : set.pieces_within(probe)) covered += piece.length();
    std::int64_t uncovered = 0;
    for (const auto& gap : set.gaps_within(probe)) uncovered += gap.length();
    ASSERT_EQ(covered + uncovered, probe.length());
  }
}

/// Property: the running measure() total kept by insert/erase equals the
/// sum recomputed from the spans after every operation, including set
/// unions and erases that split one span or trim two.
TEST(IntervalSetProperty, CachedMeasureMatchesRecomputedSum) {
  constexpr std::int64_t kUniverse = 300;
  Rng rng(1506);
  const auto random_interval = [&rng] {
    const std::int64_t a = rng.uniform_int(0, kUniverse);
    const std::int64_t b = rng.uniform_int(0, kUniverse);
    return Interval{std::min(a, b), std::max(a, b)};
  };
  const auto recomputed = [](const IntervalSet& set) {
    std::int64_t total = 0;
    for (const Interval& span : set.to_vector()) total += span.length();
    return total;
  };
  for (int trial = 0; trial < 40; ++trial) {
    IntervalSet set;
    for (int op = 0; op < 80; ++op) {
      const double pick = rng.uniform();
      if (pick < 0.45) {
        set.insert(random_interval());
      } else if (pick < 0.9) {
        set.erase(random_interval());
      } else {
        IntervalSet other;
        for (int i = 0; i < 3; ++i) other.insert(random_interval());
        ASSERT_EQ(other.measure(), recomputed(other));
        set.insert(other);
      }
      ASSERT_EQ(set.measure(), recomputed(set))
          << "trial " << trial << " op " << op;
    }
    const IntervalSet copy = set;
    ASSERT_EQ(copy.measure(), set.measure());
  }
}

}  // namespace
}  // namespace hetsched
