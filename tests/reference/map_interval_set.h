// Differential partner of IntervalSet (util/interval_set.h): the
// std::map<start, end> scoreboard representation the repo used before the
// flat vector. API-identical to IntervalSet; the differential tests replay
// random workloads through both and assert equal observable state.
// Test- and bench-only.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>

#include "dctcpp/util/assert.h"
#include "dctcpp/util/interval_set.h"

namespace dctcpp {

class MapIntervalSet {
 public:
  bool empty() const { return m_.empty(); }
  std::size_t size() const { return m_.size(); }
  void clear() { m_.clear(); }

  Interval front() const {
    DCTCPP_DASSERT(!m_.empty());
    return Interval{m_.begin()->first, m_.begin()->second};
  }

  void PopFront() {
    DCTCPP_DASSERT(!m_.empty());
    m_.erase(m_.begin());
  }

  void Add(std::int64_t start, std::int64_t end) {
    if (end <= start) return;
    auto it = m_.upper_bound(start);
    if (it != m_.begin()) {
      auto prev = std::prev(it);
      if (prev->second >= start) {
        start = prev->first;
        it = prev;
      }
    }
    std::int64_t merged_end = end;
    while (it != m_.end() && it->first <= merged_end) {
      merged_end = std::max(merged_end, it->second);
      it = m_.erase(it);
    }
    m_[start] = merged_end;
  }

  void TrimBelow(std::int64_t offset) {
    while (!m_.empty() && m_.begin()->second <= offset) {
      m_.erase(m_.begin());
    }
    if (!m_.empty() && m_.begin()->first < offset) {
      auto node = m_.extract(m_.begin());
      const std::int64_t end = node.mapped();
      m_[offset] = end;
    }
  }

  bool Contains(std::int64_t x) const { return CoveringEnd(x) >= 0; }

  std::int64_t CoveringEnd(std::int64_t x) const {
    auto it = m_.upper_bound(x);
    if (it == m_.begin()) return -1;
    --it;
    return it->second > x ? it->second : -1;
  }

  std::int64_t NextStartAfter(std::int64_t x) const {
    auto it = m_.upper_bound(x);
    return it == m_.end() ? -1 : it->first;
  }

  std::int64_t TotalBytes() const {
    std::int64_t total = 0;
    for (const auto& [start, end] : m_) total += end - start;
    return total;
  }

  template <typename F>
  void ForEach(F&& fn) const {
    for (const auto& [start, end] : m_) {
      if (!fn(Interval{start, end})) return;
    }
  }

 private:
  std::map<std::int64_t, std::int64_t> m_;
};

}  // namespace dctcpp
