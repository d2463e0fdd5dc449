// Disjoint-interval sets over linear (64-bit) byte offsets — the shared
// representation of the receiver's out-of-order reassembly scoreboard and
// the sender's SACK scoreboard.
//
// IntervalSet is a sorted flat vector of [start, end) ranges. Lookups are
// a binary search over contiguous memory and mutation is a memmove; with
// the handful of live ranges a TCP scoreboard holds this beats the
// node-per-range std::map it replaced (one allocation + pointer chase per
// out-of-order segment) by a wide margin. The std::map formulation
// survives as its differential partner in
// tests/reference/map_interval_set.h.
//
// Overlapping *and* abutting ranges coalesce, so a set never holds
// [a, b) and [b, c) separately. All operations keep the ranges disjoint,
// non-empty, and sorted by start.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "dctcpp/util/assert.h"

namespace dctcpp {

/// One [start, end) range; end is exclusive and start < end always holds
/// for ranges stored in a set.
struct Interval {
  std::int64_t start = 0;
  std::int64_t end = 0;

  bool operator==(const Interval&) const = default;
};

/// Sorted flat vector of disjoint intervals.
class IntervalSet {
 public:
  bool empty() const { return v_.empty(); }
  std::size_t size() const { return v_.size(); }
  void clear() { v_.clear(); }

  /// The lowest range. Precondition: !empty().
  const Interval& front() const {
    DCTCPP_DASSERT(!v_.empty());
    return v_.front();
  }

  /// Removes the lowest range. Precondition: !empty().
  void PopFront() {
    DCTCPP_DASSERT(!v_.empty());
    v_.erase(v_.begin());
  }

  /// Inserts [start, end), coalescing with any overlapping or abutting
  /// ranges. Empty input ranges are ignored.
  void Add(std::int64_t start, std::int64_t end) {
    if (end <= start) return;
    // First range with start >= `start`.
    auto it = std::lower_bound(
        v_.begin(), v_.end(), start,
        [](const Interval& iv, std::int64_t x) { return iv.start < x; });
    if (it != v_.begin() && std::prev(it)->end >= start) {
      --it;  // overlaps/abuts the previous range: extend it instead
      start = it->start;
    }
    std::int64_t merged_end = end;
    auto last = it;
    while (last != v_.end() && last->start <= merged_end) {
      merged_end = std::max(merged_end, last->end);
      ++last;
    }
    if (it == last) {
      v_.insert(it, Interval{start, merged_end});
    } else {
      it->start = start;
      it->end = merged_end;
      v_.erase(it + 1, last);
    }
  }

  /// Removes all coverage below `offset`: ranges ending at or before it are
  /// dropped and a range straddling it is truncated to start there.
  void TrimBelow(std::int64_t offset) {
    // Ends are strictly increasing (disjoint + sorted), so the drop prefix
    // is found with one binary search on end.
    auto keep = std::lower_bound(
        v_.begin(), v_.end(), offset,
        [](const Interval& iv, std::int64_t x) { return iv.end <= x; });
    v_.erase(v_.begin(), keep);
    if (!v_.empty() && v_.front().start < offset) v_.front().start = offset;
  }

  bool Contains(std::int64_t x) const { return CoveringEnd(x) >= 0; }

  /// End of the range covering `x`, or -1 when `x` is uncovered.
  std::int64_t CoveringEnd(std::int64_t x) const {
    // Last range with start <= x.
    auto it = std::upper_bound(
        v_.begin(), v_.end(), x,
        [](std::int64_t v, const Interval& iv) { return v < iv.start; });
    if (it == v_.begin()) return -1;
    --it;
    return it->end > x ? it->end : -1;
  }

  /// Smallest range start strictly greater than `x`, or -1 when none.
  std::int64_t NextStartAfter(std::int64_t x) const {
    auto it = std::upper_bound(
        v_.begin(), v_.end(), x,
        [](std::int64_t v, const Interval& iv) { return v < iv.start; });
    return it == v_.end() ? -1 : it->start;
  }

  std::int64_t TotalBytes() const {
    std::int64_t total = 0;
    for (const Interval& iv : v_) total += iv.end - iv.start;
    return total;
  }

  /// Calls `fn(interval)` lowest-first; stops early when fn returns false.
  template <typename F>
  void ForEach(F&& fn) const {
    for (const Interval& iv : v_) {
      if (!fn(iv)) return;
    }
  }

  const std::vector<Interval>& intervals() const { return v_; }

 private:
  std::vector<Interval> v_;
};

}  // namespace dctcpp
