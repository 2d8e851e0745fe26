#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "common/interval_set.hpp"

/// Reference span stores: RangeMap and IntervalSet as they were kept on a
/// std::map (begin -> span), one tree node per span. The differential test
/// (ctest -L graph) holds the flat sorted-vector stores against them: same
/// spans, same coalescing, same pieces for every query.
namespace hetsched::testing {

template <typename T>
class MapRangeMap {
 public:
  struct Entry {
    Interval range;
    T value;
  };

  bool empty() const { return spans_.empty(); }
  std::size_t span_count() const { return spans_.size(); }

  /// Assigns `value` to every point in `range`, overwriting previous values.
  void assign(Interval range, T value) {
    if (range.empty()) return;
    auto it = spans_.lower_bound(range.begin);
    if (it != spans_.end() && it->first == range.begin &&
        it->second.end == range.end) {
      // Exactly an existing span, as when a task rewrites the chunk an
      // earlier one touched: overwrite it in place, without reallocating.
      it->second.value = std::move(value);
    } else {
      it = spans_.emplace_hint(cut(range, it), range.begin,
                               Span{range.end, std::move(value)});
    }
    // Merge with equal-valued neighbours to keep the map compact.
    coalesce(it);
  }

  /// Removes all points of `range` from the map.
  void erase(Interval range) {
    if (!range.empty()) cut(range, spans_.lower_bound(range.begin));
  }

  /// Visits every (sub-range, value) piece overlapping `range`, in order.
  template <typename Fn>
  void for_each_overlapping(Interval range, Fn&& fn) const {
    if (range.empty() || spans_.empty()) return;
    auto it = spans_.upper_bound(range.begin);
    if (it != spans_.begin()) --it;
    for (; it != spans_.end() && it->first < range.end; ++it) {
      const Interval piece =
          intersect({it->first, it->second.end}, range);
      if (!piece.empty()) fn(piece, it->second.value);
    }
  }

  void clear() { spans_.clear(); }

  std::vector<Entry> to_vector() const {
    std::vector<Entry> result;
    result.reserve(spans_.size());
    for (const auto& [begin, span] : spans_)
      result.push_back({{begin, span.end}, span.value});
    return result;
  }

 private:
  struct Span {
    std::int64_t end;
    T value;
  };
  using Iterator = typename std::map<std::int64_t, Span>::iterator;

  /// Removes all points of the non-empty `range`, given the first span at
  /// or past its begin; returns the first span past it. Only the (at most
  /// two) spans straddling an end of `range` survive, trimmed in place.
  Iterator cut(Interval range, Iterator it) {
    if (it != spans_.begin()) {
      auto prev = std::prev(it);
      if (prev->second.end > range.begin) {
        const std::int64_t end = prev->second.end;
        prev->second.end = range.begin;
        if (end > range.end)  // `range` lies strictly inside: split
          return spans_.emplace_hint(it, range.end,
                                     Span{end, prev->second.value});
      }
    }
    while (it != spans_.end() && it->first < range.end) {
      if (it->second.end > range.end) {
        // Straddles the end: re-key its node at range.end (no allocation).
        auto node = spans_.extract(it++);
        node.key() = range.end;
        return spans_.insert(it, std::move(node));
      }
      it = spans_.erase(it);
    }
    return it;
  }

  /// Merges the span at `it` with touching, equal-valued neighbours.
  void coalesce(Iterator it) {
    if (it != spans_.begin()) {
      auto prev = std::prev(it);
      if (prev->second.end == it->first &&
          prev->second.value == it->second.value) {
        prev->second.end = it->second.end;
        spans_.erase(it);
        it = prev;
      }
    }
    auto next = std::next(it);
    if (next != spans_.end() && it->second.end == next->first &&
        it->second.value == next->second.value) {
      it->second.end = next->second.end;
      spans_.erase(next);
    }
  }

  // begin -> (end, value); spans are disjoint.
  std::map<std::int64_t, Span> spans_;
};

class MapIntervalSet {
 public:
  MapIntervalSet() = default;
  explicit MapIntervalSet(Interval iv) { insert(iv); }

  bool empty() const { return spans_.empty(); }
  std::size_t span_count() const { return spans_.size(); }

  /// Total number of points covered: a running total kept by insert/erase,
  /// so residency accounting never re-walks the spans.
  std::int64_t measure() const { return measure_; }

  /// Adds an interval, coalescing with any overlapping/adjacent spans.
  void insert(Interval iv) {
    if (iv.empty()) return;
    // Find the first span that could merge: the first with end >= iv.begin.
    auto it = spans_.lower_bound(iv.begin);
    if (it != spans_.begin()) {
      auto prev = std::prev(it);
      if (prev->second >= iv.begin) it = prev;
    }
    while (it != spans_.end() && it->first <= iv.end) {
      iv.begin = std::min(iv.begin, it->first);
      iv.end = std::max(iv.end, it->second);
      measure_ -= it->second - it->first;
      it = spans_.erase(it);
    }
    spans_.emplace_hint(it, iv.begin, iv.end);
    measure_ += iv.length();
  }

  void insert(const MapIntervalSet& other) {
    for (const auto& [b, e] : other.spans_) insert({b, e});
  }

  /// Removes all points of `iv` from the set. Only the (at most two) spans
  /// straddling an end of `iv` survive, trimmed in place.
  void erase(Interval iv) {
    if (iv.empty() || spans_.empty()) return;
    auto it = spans_.lower_bound(iv.begin);
    if (it != spans_.begin()) {
      auto prev = std::prev(it);
      if (prev->second > iv.begin) {
        const std::int64_t end = prev->second;
        prev->second = iv.begin;
        measure_ -= end - iv.begin;
        if (end > iv.end) {  // `iv` lies strictly inside: split the span
          spans_.emplace_hint(it, iv.end, end);
          measure_ += end - iv.end;
          return;
        }
      }
    }
    while (it != spans_.end() && it->first < iv.end) {
      if (it->second > iv.end) {
        // Straddles the end: re-key its node at iv.end (no allocation).
        auto node = spans_.extract(it++);
        measure_ -= iv.end - node.key();
        node.key() = iv.end;
        spans_.insert(it, std::move(node));
        return;
      }
      measure_ -= it->second - it->first;
      it = spans_.erase(it);
    }
  }

  /// True iff every point of `iv` is covered.
  bool covers(Interval iv) const {
    if (iv.empty()) return true;
    auto it = spans_.upper_bound(iv.begin);
    if (it == spans_.begin()) return false;
    --it;
    return it->first <= iv.begin && it->second >= iv.end;
  }

  /// True iff any point of `iv` is covered.
  bool intersects(Interval iv) const {
    if (iv.empty() || spans_.empty()) return false;
    auto it = spans_.lower_bound(iv.begin);
    if (it != spans_.end() && it->first < iv.end) return true;
    if (it == spans_.begin()) return false;
    --it;
    return it->second > iv.begin;
  }

  /// The parts of `iv` NOT covered by this set (in order).
  std::vector<Interval> gaps_within(Interval iv) const {
    std::vector<Interval> result;
    if (iv.empty()) return result;
    std::int64_t cursor = iv.begin;
    auto it = spans_.upper_bound(iv.begin);
    if (it != spans_.begin()) {
      auto prev = std::prev(it);
      if (prev->second > iv.begin) cursor = std::min(prev->second, iv.end);
    }
    for (; it != spans_.end() && it->first < iv.end; ++it) {
      if (it->first > cursor) result.push_back({cursor, it->first});
      cursor = std::min(it->second, iv.end);
    }
    if (cursor < iv.end) result.push_back({cursor, iv.end});
    return result;
  }

  /// The parts of `iv` covered by this set (in order).
  std::vector<Interval> pieces_within(Interval iv) const {
    std::vector<Interval> result;
    if (iv.empty()) return result;
    auto it = spans_.upper_bound(iv.begin);
    if (it != spans_.begin()) --it;
    for (; it != spans_.end() && it->first < iv.end; ++it) {
      const Interval piece = intersect({it->first, it->second}, iv);
      if (!piece.empty()) result.push_back(piece);
    }
    return result;
  }

  std::vector<Interval> to_vector() const {
    std::vector<Interval> result;
    result.reserve(spans_.size());
    for (const auto& [b, e] : spans_) result.push_back({b, e});
    return result;
  }

  friend bool operator==(const MapIntervalSet& a, const MapIntervalSet& b) {
    return a.spans_ == b.spans_;
  }

 private:
  // begin -> end, canonical form.
  std::map<std::int64_t, std::int64_t> spans_;
  std::int64_t measure_ = 0;  // sum of span lengths
};

}  // namespace hetsched::testing
