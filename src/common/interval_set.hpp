#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "common/error.hpp"

/// Half-open integer intervals and interval sets.
///
/// These are the workhorses of both the dependency analyzer (which tasks
/// touch overlapping byte ranges of a buffer?) and the coherence manager
/// (which byte ranges of a buffer are valid in which memory space?).
namespace hetsched {

/// A half-open interval [begin, end). Empty iff begin >= end.
struct Interval {
  std::int64_t begin = 0;
  std::int64_t end = 0;

  constexpr bool empty() const { return begin >= end; }
  constexpr std::int64_t length() const { return empty() ? 0 : end - begin; }

  constexpr bool contains(std::int64_t point) const {
    return point >= begin && point < end;
  }
  constexpr bool contains(const Interval& other) const {
    return other.empty() || (other.begin >= begin && other.end <= end);
  }
  constexpr bool overlaps(const Interval& other) const {
    return !empty() && !other.empty() && begin < other.end &&
           other.begin < end;
  }

  friend constexpr bool operator==(const Interval&, const Interval&) = default;
};

constexpr Interval intersect(const Interval& a, const Interval& b) {
  return Interval{std::max(a.begin, b.begin), std::min(a.end, b.end)};
}

/// An ordered set of disjoint, non-adjacent half-open intervals.
///
/// Maintains the canonical form invariant: intervals are sorted, non-empty,
/// and separated by gaps (adjacent/overlapping inserts coalesce).
class IntervalSet {
 public:
  IntervalSet() = default;
  explicit IntervalSet(Interval iv) { insert(iv); }

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

  void insert(const IntervalSet& other) {
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

  friend bool operator==(const IntervalSet& a, const IntervalSet& b) {
    return a.spans_ == b.spans_;
  }

 private:
  // begin -> end, canonical form.
  std::map<std::int64_t, std::int64_t> spans_;
  std::int64_t measure_ = 0;  // sum of span lengths
};

}  // namespace hetsched
