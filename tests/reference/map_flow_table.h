// Differential partner of FlatFlowTable (util/flow_table.h): a std::map
// keyed by the packed flow tuple, with the identical API and observable
// behaviour. Test- and bench-only; the datapath never sees it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>

#include "dctcpp/util/assert.h"

namespace dctcpp {

template <typename V>
class MapFlowTable {
 public:
  void Insert(std::uint64_t key, const V& value) {
    const auto [it, inserted] = map_.emplace(key, value);
    DCTCPP_ASSERT(inserted);
    (void)it;
  }

  bool Erase(std::uint64_t key) { return map_.erase(key) > 0; }

  const V* Find(std::uint64_t key) const {
    const auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second;
  }

  bool Contains(std::uint64_t key) const { return map_.count(key) > 0; }

  std::size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }

 private:
  std::map<std::uint64_t, V> map_;
};

}  // namespace dctcpp
