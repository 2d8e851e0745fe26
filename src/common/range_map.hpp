#pragma once

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#include "common/interval_set.hpp"

/// RangeMap<T>: a map from half-open integer intervals to values, where a
/// later assignment overwrites the overlapped parts of earlier ones
/// (splitting them as needed).
///
/// This is exactly the bookkeeping the dependency analyzer needs: "who last
/// wrote byte range [a, b) of buffer X?" is a RangeMap<TaskId> updated by
/// writes and queried by reads.
///
/// The spans live in one sorted vector: a lookup is a binary search (none
/// when the span goes past the tail, as in a sweep over ascending chunks),
/// and an update replaces the covered slice in place with at most three
/// spans, so no call allocates a tree node.
namespace hetsched {

template <typename T>
class RangeMap {
 public:
  struct Entry {
    Interval range;
    T value;
  };

  bool empty() const { return spans_.empty(); }
  std::size_t span_count() const { return spans_.size(); }

  /// Assigns `value` to every point in `range`, overwriting previous values.
  /// The new span merges with a touching, equal-valued neighbour on either
  /// side to keep the map compact.
  void assign(Interval range, T value) {
    if (range.empty()) return;
    if (spans_.empty() || spans_.back().range.end <= range.begin) {
      if (!spans_.empty() && spans_.back().range.end == range.begin &&
          spans_.back().value == value) {
        spans_.back().range.end = range.end;
      } else {
        spans_.push_back({range, std::move(value)});
      }
      return;
    }
    std::size_t first = first_ending_after(range.begin);
    std::size_t last = first_starting_at_or_after(range.end, first);
    std::array<Entry, 3> pieces;
    std::size_t n = 0;
    Interval merged = range;
    if (first < last && spans_[first].range.begin < range.begin) {
      // The left straddler keeps its part before `range`.
      if (spans_[first].value == value)
        merged.begin = spans_[first].range.begin;
      else
        pieces[n++] = {{spans_[first].range.begin, range.begin},
                       spans_[first].value};
    } else if (first > 0 && spans_[first - 1].range.end == range.begin &&
               spans_[first - 1].value == value) {
      merged.begin = spans_[--first].range.begin;
    }
    const std::size_t new_at = n++;
    if (first < last && spans_[last - 1].range.end > range.end) {
      // The right straddler keeps its part past `range`.
      if (spans_[last - 1].value == value)
        merged.end = spans_[last - 1].range.end;
      else
        pieces[n++] = {{range.end, spans_[last - 1].range.end},
                       spans_[last - 1].value};
    } else if (last < spans_.size() && spans_[last].range.begin == range.end &&
               spans_[last].value == value) {
      merged.end = spans_[last++].range.end;
    }
    pieces[new_at] = {merged, std::move(value)};
    detail::splice_spans(spans_, first, last, pieces.data(), n);
  }

  /// Removes all points of `range` from the map. Only the (at most two)
  /// spans straddling an end of `range` survive, trimmed.
  void erase(Interval range) {
    if (range.empty() || spans_.empty()) return;
    const std::size_t first = first_ending_after(range.begin);
    const std::size_t last = first_starting_at_or_after(range.end, first);
    if (first == last) return;
    std::array<Entry, 2> pieces;
    std::size_t n = 0;
    if (spans_[first].range.begin < range.begin)
      pieces[n++] = {{spans_[first].range.begin, range.begin},
                     spans_[first].value};
    if (spans_[last - 1].range.end > range.end)
      pieces[n++] = {{range.end, spans_[last - 1].range.end},
                     spans_[last - 1].value};
    detail::splice_spans(spans_, first, last, pieces.data(), n);
  }

  /// Visits every (sub-range, value) piece overlapping `range`, in order.
  template <typename Fn>
  void for_each_overlapping(Interval range, Fn&& fn) const {
    if (range.empty()) return;
    for (std::size_t i = first_ending_after(range.begin);
         i < spans_.size() && spans_[i].range.begin < range.end; ++i)
      fn(intersect(spans_[i].range, range), spans_[i].value);
  }

  void clear() { spans_.clear(); }

  std::vector<Entry> to_vector() const { return spans_; }

 private:
  /// Index of the first span ending past `point` (spans are disjoint and
  /// sorted, so their ends are sorted too).
  std::size_t first_ending_after(std::int64_t point) const {
    return static_cast<std::size_t>(
        std::partition_point(spans_.begin(), spans_.end(),
                             [point](const Entry& span) {
                               return span.range.end <= point;
                             }) -
        spans_.begin());
  }

  /// Index of the first span at or after `from` starting at or past `point`:
  /// the end of the slice an update at [.., point) covers. A linear walk,
  /// since the slice is replaced anyway.
  std::size_t first_starting_at_or_after(std::int64_t point,
                                         std::size_t from) const {
    while (from < spans_.size() && spans_[from].range.begin < point) ++from;
    return from;
  }

  /// Disjoint spans, sorted by begin.
  std::vector<Entry> spans_;
};

}  // namespace hetsched
