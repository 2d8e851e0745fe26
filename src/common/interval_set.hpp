#pragma once

#include <algorithm>
#include <cstdint>
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

namespace detail {

/// Replaces elements [first, last) of the sorted span vector `spans` with
/// `pieces[0, n)`, moving only the tail past the slice.
template <typename Span>
void splice_spans(std::vector<Span>& spans, std::size_t first,
                  std::size_t last, Span* pieces, std::size_t n) {
  const auto at = spans.begin() + static_cast<std::ptrdiff_t>(first);
  const std::size_t old = last - first;
  if (n > old)
    spans.insert(at + static_cast<std::ptrdiff_t>(old), n - old, pieces[0]);
  else if (n < old)
    spans.erase(at + static_cast<std::ptrdiff_t>(n),
                at + static_cast<std::ptrdiff_t>(old));
  std::move(pieces, pieces + n,
            spans.begin() + static_cast<std::ptrdiff_t>(first));
}

}  // namespace detail

/// An ordered set of disjoint, non-adjacent half-open intervals.
///
/// Maintains the canonical form invariant: intervals are sorted, non-empty,
/// and separated by gaps (adjacent/overlapping inserts coalesce). The spans
/// live in one sorted vector: a lookup is a binary search (none when the
/// interval goes past the tail), and an update replaces the covered slice
/// in place.
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
    if (spans_.empty() || spans_.back().end < iv.begin) {
      spans_.push_back(iv);
      measure_ += iv.length();
      return;
    }
    // The spans that merge: from the first ending at or past iv.begin to
    // the last starting at or before iv.end.
    const std::size_t first = static_cast<std::size_t>(
        std::partition_point(
            spans_.begin(), spans_.end(),
            [&iv](const Interval& span) { return span.end < iv.begin; }) -
        spans_.begin());
    std::size_t last = first;
    for (; last < spans_.size() && spans_[last].begin <= iv.end; ++last) {
      iv.begin = std::min(iv.begin, spans_[last].begin);
      iv.end = std::max(iv.end, spans_[last].end);
      measure_ -= spans_[last].length();
    }
    detail::splice_spans(spans_, first, last, &iv, 1);
    measure_ += iv.length();
  }

  void insert(const IntervalSet& other) {
    for (const Interval& iv : other.spans_) insert(iv);
  }

  /// Removes all points of `iv` from the set. Only the (at most two) spans
  /// straddling an end of `iv` survive, trimmed.
  void erase(Interval iv) {
    if (iv.empty() || spans_.empty()) return;
    const std::size_t first = first_ending_after(iv.begin);
    std::size_t last = first;
    for (; last < spans_.size() && spans_[last].begin < iv.end; ++last)
      measure_ -= spans_[last].length();
    if (first == last) return;
    Interval pieces[2];
    std::size_t n = 0;
    if (spans_[first].begin < iv.begin)
      pieces[n++] = {spans_[first].begin, iv.begin};
    if (spans_[last - 1].end > iv.end)
      pieces[n++] = {iv.end, spans_[last - 1].end};
    for (std::size_t i = 0; i < n; ++i) measure_ += pieces[i].length();
    detail::splice_spans(spans_, first, last, pieces, n);
  }

  /// True iff every point of `iv` is covered.
  bool covers(Interval iv) const {
    if (iv.empty()) return true;
    const std::size_t i = first_ending_after(iv.begin);
    return i < spans_.size() && spans_[i].begin <= iv.begin &&
           spans_[i].end >= iv.end;
  }

  /// True iff any point of `iv` is covered.
  bool intersects(Interval iv) const {
    if (iv.empty()) return false;
    const std::size_t i = first_ending_after(iv.begin);
    return i < spans_.size() && spans_[i].begin < iv.end;
  }

  /// The parts of `iv` NOT covered by this set (in order).
  std::vector<Interval> gaps_within(Interval iv) const {
    std::vector<Interval> result;
    if (iv.empty()) return result;
    std::int64_t cursor = iv.begin;
    for (std::size_t i = first_ending_after(iv.begin);
         i < spans_.size() && spans_[i].begin < iv.end; ++i) {
      if (spans_[i].begin > cursor) result.push_back({cursor, spans_[i].begin});
      cursor = std::min(spans_[i].end, iv.end);
    }
    if (cursor < iv.end) result.push_back({cursor, iv.end});
    return result;
  }

  /// The parts of `iv` covered by this set (in order).
  std::vector<Interval> pieces_within(Interval iv) const {
    std::vector<Interval> result;
    if (iv.empty()) return result;
    for (std::size_t i = first_ending_after(iv.begin);
         i < spans_.size() && spans_[i].begin < iv.end; ++i)
      result.push_back(intersect(spans_[i], iv));
    return result;
  }

  std::vector<Interval> to_vector() const { return spans_; }

  friend bool operator==(const IntervalSet& a, const IntervalSet& b) {
    return a.spans_ == b.spans_;
  }

 private:
  /// Index of the first span ending past `point`.
  std::size_t first_ending_after(std::int64_t point) const {
    return static_cast<std::size_t>(
        std::partition_point(
            spans_.begin(), spans_.end(),
            [point](const Interval& span) { return span.end <= point; }) -
        spans_.begin());
  }

  // Canonical form, sorted by begin.
  std::vector<Interval> spans_;
  std::int64_t measure_ = 0;  // sum of span lengths
};

}  // namespace hetsched
