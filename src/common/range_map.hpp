#pragma once

#include <map>
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

}  // namespace hetsched
