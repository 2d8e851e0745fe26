#include "common/range_map.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hpp"

namespace hetsched {
namespace {

/// The (sub-range, value) pieces for_each_overlapping visits, in order.
std::vector<RangeMap<int>::Entry> pieces_of(const RangeMap<int>& map,
                                            Interval range) {
  std::vector<RangeMap<int>::Entry> pieces;
  map.for_each_overlapping(range, [&pieces](Interval piece, int value) {
    pieces.push_back({piece, value});
  });
  return pieces;
}

TEST(RangeMap, EmptyQueries) {
  RangeMap<int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_TRUE(pieces_of(map, {0, 100}).empty());
}

TEST(RangeMap, SimpleAssignAndQuery) {
  RangeMap<int> map;
  map.assign({10, 20}, 1);
  const auto pieces = pieces_of(map, {0, 100});
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0].range, (Interval{10, 20}));
  EXPECT_EQ(pieces[0].value, 1);
}

TEST(RangeMap, LaterAssignOverwritesOverlap) {
  RangeMap<int> map;
  map.assign({0, 100}, 1);
  map.assign({40, 60}, 2);
  const auto pieces = pieces_of(map, {0, 100});
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0].value, 1);
  EXPECT_EQ(pieces[0].range, (Interval{0, 40}));
  EXPECT_EQ(pieces[1].value, 2);
  EXPECT_EQ(pieces[1].range, (Interval{40, 60}));
  EXPECT_EQ(pieces[2].value, 1);
  EXPECT_EQ(pieces[2].range, (Interval{60, 100}));
}

TEST(RangeMap, AssignCoalescesEqualNeighbours) {
  RangeMap<int> map;
  map.assign({0, 10}, 7);
  map.assign({10, 20}, 7);
  EXPECT_EQ(map.span_count(), 1u);
  map.assign({20, 30}, 8);
  EXPECT_EQ(map.span_count(), 2u);
  map.assign({20, 30}, 7);  // now merges everything
  EXPECT_EQ(map.span_count(), 1u);
}

TEST(RangeMap, EraseSplits) {
  RangeMap<int> map;
  map.assign({0, 100}, 5);
  map.erase({30, 70});
  const auto pieces = pieces_of(map, {0, 100});
  ASSERT_EQ(pieces.size(), 2u);
  EXPECT_EQ(pieces[0].range, (Interval{0, 30}));
  EXPECT_EQ(pieces[1].range, (Interval{70, 100}));
}

TEST(RangeMap, ForEachOverlappingVisitsSeparatedEqualValues) {
  RangeMap<int> map;
  map.assign({0, 10}, 1);
  map.assign({20, 30}, 1);
  map.assign({40, 50}, 2);
  const auto pieces = pieces_of(map, {5, 45});
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0].range, (Interval{5, 10}));
  EXPECT_EQ(pieces[0].value, 1);
  EXPECT_EQ(pieces[1].range, (Interval{20, 30}));
  EXPECT_EQ(pieces[1].value, 1);
  EXPECT_EQ(pieces[2].range, (Interval{40, 45}));
  EXPECT_EQ(pieces[2].value, 2);
}

TEST(RangeMap, EraseAcrossSpansTrimsBothEnds) {
  RangeMap<int> map;
  map.assign({0, 10}, 1);
  map.assign({10, 20}, 2);
  map.assign({20, 30}, 3);
  map.erase({5, 25});
  const auto pieces = pieces_of(map, {0, 100});
  ASSERT_EQ(pieces.size(), 2u);
  EXPECT_EQ(pieces[0].range, (Interval{0, 5}));
  EXPECT_EQ(pieces[0].value, 1);
  EXPECT_EQ(pieces[1].range, (Interval{25, 30}));
  EXPECT_EQ(pieces[1].value, 3);
}

TEST(RangeMap, QueryClipsToProbe) {
  RangeMap<int> map;
  map.assign({0, 100}, 3);
  const auto pieces = pieces_of(map, {30, 40});
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0].range, (Interval{30, 40}));
}

TEST(RangeMap, EmptyAssignIsNoop) {
  RangeMap<int> map;
  map.assign({5, 5}, 1);
  EXPECT_TRUE(map.empty());
}

TEST(RangeMap, ClearEmpties) {
  RangeMap<int> map;
  map.assign({0, 10}, 1);
  map.clear();
  EXPECT_TRUE(map.empty());
}

/// Property: random assigns/erases agree with a per-point reference model.
TEST(RangeMapProperty, MatchesPointModel) {
  constexpr std::int64_t kUniverse = 200;
  Rng rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    RangeMap<int> map;
    std::map<std::int64_t, int> model;  // point -> value
    for (int op = 0; op < 80; ++op) {
      const std::int64_t a = rng.uniform_int(0, kUniverse);
      const std::int64_t b = rng.uniform_int(0, kUniverse);
      const Interval iv{std::min(a, b), std::max(a, b)};
      if (rng.uniform() < 0.7) {
        const int value = static_cast<int>(rng.uniform_int(0, 5));
        map.assign(iv, value);
        for (std::int64_t p = iv.begin; p < iv.end; ++p) model[p] = value;
      } else {
        map.erase(iv);
        for (std::int64_t p = iv.begin; p < iv.end; ++p) model.erase(p);
      }

      // Compare by expanding the range map to points.
      std::map<std::int64_t, int> expanded;
      for (const auto& entry : map.to_vector())
        for (std::int64_t p = entry.range.begin; p < entry.range.end; ++p)
          expanded[p] = entry.value;
      ASSERT_EQ(expanded, model) << "trial " << trial << " op " << op;
    }
  }
}

/// Property: on endpoints from a coarse grid, so assigns and erases often
/// meet span boundaries exactly, the map agrees with a per-point model and
/// stays canonical: one span per maximal run of equal values.
TEST(RangeMapProperty, GridAssignsStayCanonical) {
  constexpr std::int64_t kCells = 12;
  constexpr std::int64_t kCell = 10;
  Rng rng(78);
  for (int trial = 0; trial < 30; ++trial) {
    RangeMap<int> map;
    std::map<std::int64_t, int> model;  // point -> value
    for (int op = 0; op < 80; ++op) {
      const std::int64_t a = rng.uniform_int(0, kCells) * kCell;
      const std::int64_t b = rng.uniform_int(0, kCells) * kCell;
      const Interval iv{std::min(a, b), std::max(a, b)};
      if (rng.uniform() < 0.8) {
        const int value = static_cast<int>(rng.uniform_int(0, 2));
        map.assign(iv, value);
        for (std::int64_t p = iv.begin; p < iv.end; ++p) model[p] = value;
      } else {
        map.erase(iv);
        for (std::int64_t p = iv.begin; p < iv.end; ++p) model.erase(p);
      }

      std::map<std::int64_t, int> expanded;
      for (const auto& entry : map.to_vector())
        for (std::int64_t p = entry.range.begin; p < entry.range.end; ++p)
          expanded[p] = entry.value;
      ASSERT_EQ(expanded, model) << "trial " << trial << " op " << op;
      std::size_t runs = 0;
      for (auto it = model.begin(); it != model.end(); ++it) {
        const auto prev = it == model.begin() ? model.end() : std::prev(it);
        if (prev == model.end() || prev->first + 1 != it->first ||
            prev->second != it->second)
          ++runs;
      }
      ASSERT_EQ(map.span_count(), runs) << "trial " << trial << " op " << op;
    }
  }
}

}  // namespace
}  // namespace hetsched
