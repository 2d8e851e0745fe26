#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/interval_set.hpp"
#include "common/range_map.hpp"
#include "common/rng.hpp"
#include "tests/common/reference_span_store.hpp"

/// Differential test of the flat span stores against the std::map stores
/// they replaced (tests/common/reference_span_store.hpp): random update
/// streams in ascending, descending and interior order must leave the same
/// spans and answer every query with the same pieces.
namespace hetsched {
namespace {

using testing::MapIntervalSet;
using testing::MapRangeMap;

enum class Order { kAscending, kDescending, kInterior };

/// Draws update ranges: chunks marching right (with small overlaps back),
/// chunks marching left (into negative coordinates), or anywhere in a
/// small universe.
class RangeSource {
 public:
  RangeSource(Order order, std::uint64_t seed) : order_(order), rng_(seed) {}

  Interval next() {
    const std::int64_t length = rng_.uniform_int(1, 16);
    switch (order_) {
      case Order::kAscending: {
        const std::int64_t begin = cursor_ - rng_.uniform_int(0, 4);
        cursor_ = begin + length;
        return {begin, cursor_};
      }
      case Order::kDescending: {
        const std::int64_t end = cursor_ + rng_.uniform_int(0, 4);
        cursor_ = end - length;
        return {cursor_, end};
      }
      case Order::kInterior:
        break;
    }
    const std::int64_t begin = rng_.uniform_int(-8, 200);
    return {begin, begin + length * rng_.uniform_int(1, 4)};
  }

  /// A query range around the region updates have touched (sometimes
  /// empty, sometimes past every span).
  Interval query() {
    const std::int64_t center =
        order_ == Order::kInterior ? rng_.uniform_int(-16, 216) : cursor_;
    const std::int64_t begin = center + rng_.uniform_int(-64, 16);
    return {begin, begin + rng_.uniform_int(0, 80)};
  }

  Rng& rng() { return rng_; }

 private:
  Order order_;
  Rng rng_;
  std::int64_t cursor_ = 0;
};

using Piece = std::tuple<std::int64_t, std::int64_t, int>;

template <typename Map>
std::vector<Piece> spans_of(const Map& map) {
  std::vector<Piece> spans;
  for (const auto& entry : map.to_vector())
    spans.emplace_back(entry.range.begin, entry.range.end, entry.value);
  return spans;
}

template <typename Map>
std::vector<Piece> pieces_of(const Map& map, Interval range) {
  std::vector<Piece> pieces;
  map.for_each_overlapping(range, [&pieces](Interval piece, int value) {
    pieces.emplace_back(piece.begin, piece.end, value);
  });
  return pieces;
}

constexpr Order kOrders[] = {Order::kAscending, Order::kDescending,
                             Order::kInterior};

TEST(SpanStoreDiff, RangeMapMatchesMapStore) {
  for (const Order order : kOrders) {
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      RangeSource source(order, seed);
      Rng& rng = source.rng();
      RangeMap<int> flat;
      MapRangeMap<int> reference;
      for (int op = 0; op < 300; ++op) {
        const double kind = rng.uniform();
        if (kind < 0.7) {
          // Few distinct values, so neighbours often coalesce.
          const Interval range = source.next();
          const int value = static_cast<int>(rng.uniform_int(0, 2));
          flat.assign(range, value);
          reference.assign(range, value);
        } else if (kind < 0.99) {
          const Interval range = source.next();
          flat.erase(range);
          reference.erase(range);
        } else {
          flat.clear();
          reference.clear();
        }
        ASSERT_EQ(spans_of(flat), spans_of(reference))
            << "order " << static_cast<int>(order) << " seed " << seed
            << " op " << op;
        ASSERT_EQ(flat.span_count(), reference.span_count());
        ASSERT_EQ(flat.empty(), reference.empty());
        for (int q = 0; q < 3; ++q) {
          const Interval range = source.query();
          ASSERT_EQ(pieces_of(flat, range), pieces_of(reference, range))
              << "query [" << range.begin << "," << range.end << ")";
        }
      }
    }
  }
}

TEST(SpanStoreDiff, IntervalSetMatchesMapStore) {
  for (const Order order : kOrders) {
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      RangeSource source(order, seed);
      Rng& rng = source.rng();
      IntervalSet flat;
      MapIntervalSet reference;
      for (int op = 0; op < 300; ++op) {
        const double kind = rng.uniform();
        if (kind < 0.6) {
          const Interval range = source.next();
          flat.insert(range);
          reference.insert(range);
        } else if (kind < 0.9) {
          const Interval range = source.next();
          flat.erase(range);
          reference.erase(range);
        } else if (kind < 0.99) {
          IntervalSet flat_other;
          MapIntervalSet reference_other;
          for (int i = 0; i < 3; ++i) {
            const Interval range = source.query();
            flat_other.insert(range);
            reference_other.insert(range);
          }
          flat.insert(flat_other);
          reference.insert(reference_other);
        } else {
          flat = IntervalSet{};
          reference = MapIntervalSet{};
        }
        ASSERT_EQ(flat.to_vector(), reference.to_vector())
            << "order " << static_cast<int>(order) << " seed " << seed
            << " op " << op;
        ASSERT_EQ(flat.measure(), reference.measure());
        ASSERT_EQ(flat.span_count(), reference.span_count());
        for (int q = 0; q < 3; ++q) {
          const Interval range = source.query();
          ASSERT_EQ(flat.gaps_within(range), reference.gaps_within(range));
          ASSERT_EQ(flat.pieces_within(range),
                    reference.pieces_within(range));
          ASSERT_EQ(flat.covers(range), reference.covers(range));
          ASSERT_EQ(flat.intersects(range), reference.intersects(range));
        }
      }
    }
  }
}

}  // namespace
}  // namespace hetsched
