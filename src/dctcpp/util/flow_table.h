// Flat flow table for per-packet demux.
//
// A host demultiplexes every delivered packet by its connection 4-tuple.
// The local address is implicit (the table lives in the host), so the key
// packs the remaining three fields into one uint64:
//
//   [ local_port : 16 | remote NodeId : 32 | remote_port : 16 ]
//
// FlatFlowTable is open addressing with linear probing over a power-of-two
// slot array. Slot occupancy lives in a separate state-byte vector
// (kEmpty / kFull / kTombstone) because 0 is a legal packed key, so there
// is no in-band key sentinel. Hashing is a Fibonacci multiply taking the
// top bits, which mixes the port-heavy low bits into the probe index. The
// table rehashes at ~0.7 load counting tombstones, so probe chains stay
// short even under the register/unregister churn of repeated incast
// rounds. Values must be trivially copyable (handlers are InlineHandler
// delegates) so slots relocate with plain assignment. Its std::map
// differential partner lives in tests/reference/map_flow_table.h.
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "dctcpp/util/assert.h"

namespace dctcpp {

/// Packs (local_port, remote node, remote_port) into the demux key.
/// NodeIds are dense non-negative int32s assigned by the topology builder.
inline std::uint64_t PackFlowKey(std::uint16_t local_port,
                                 std::int32_t remote,
                                 std::uint16_t remote_port) {
  return (static_cast<std::uint64_t>(local_port) << 48) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(remote))
          << 16) |
         static_cast<std::uint64_t>(remote_port);
}

template <typename V>
class FlatFlowTable {
  static_assert(std::is_trivially_copyable_v<V>,
                "flow table values must be trivially copyable");

 public:
  FlatFlowTable() = default;

  /// Inserts a new entry. The key must not already be present.
  void Insert(std::uint64_t key, const V& value) {
    if ((used_ + 1) * 10 >= slots_.size() * 7) Rehash();
    std::size_t idx = ProbeStart(key);
    std::size_t insert_at = static_cast<std::size_t>(-1);
    while (state_[idx] != kEmpty) {
      if (state_[idx] == kFull) {
        DCTCPP_ASSERT(slots_[idx].key != key);  // no duplicate keys
      } else if (insert_at == static_cast<std::size_t>(-1)) {
        insert_at = idx;  // reuse the first tombstone on the chain
      }
      idx = (idx + 1) & mask_;
    }
    if (insert_at == static_cast<std::size_t>(-1)) {
      insert_at = idx;
      ++used_;  // consumed a fresh empty slot
    }
    slots_[insert_at].key = key;
    slots_[insert_at].value = value;
    state_[insert_at] = kFull;
    ++size_;
  }

  /// Removes an entry; returns false when the key was absent.
  bool Erase(std::uint64_t key) {
    const std::size_t idx = FindSlot(key);
    if (idx == kNotFound) return false;
    state_[idx] = kTombstone;
    slots_[idx] = Slot{};  // scrub, V is trivially copyable
    --size_;
    return true;
  }

  /// Returns the value for `key`, or nullptr. The pointer is invalidated
  /// by any subsequent Insert/Erase — callers copy the value out.
  const V* Find(std::uint64_t key) const {
    const std::size_t idx = FindSlot(key);
    return idx == kNotFound ? nullptr : &slots_[idx].value;
  }
  V* Find(std::uint64_t key) {
    const std::size_t idx = FindSlot(key);
    return idx == kNotFound ? nullptr : &slots_[idx].value;
  }

  bool Contains(std::uint64_t key) const { return FindSlot(key) != kNotFound; }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return slots_.size(); }
  /// Heap bytes held by the slot and state arrays.
  std::size_t bytes() const {
    return slots_.capacity() * sizeof(Slot) + state_.capacity();
  }

 private:
  enum State : std::uint8_t { kEmpty = 0, kFull = 1, kTombstone = 2 };
  struct Slot {
    std::uint64_t key = 0;
    V value{};
  };
  static constexpr std::size_t kNotFound = static_cast<std::size_t>(-1);

  std::size_t ProbeStart(std::uint64_t key) const {
    // Fibonacci hash: multiply by 2^64/phi and keep the top log2(cap) bits.
    const std::uint64_t h = key * 0x9E3779B97F4A7C15ull;
    return static_cast<std::size_t>(h >> shift_);
  }

  std::size_t FindSlot(std::uint64_t key) const {
    if (slots_.empty()) return kNotFound;
    std::size_t idx = ProbeStart(key);
    while (state_[idx] != kEmpty) {
      if (state_[idx] == kFull && slots_[idx].key == key) return idx;
      idx = (idx + 1) & mask_;
    }
    return kNotFound;
  }

  void Rehash() {
    const std::size_t new_cap =
        slots_.empty() ? 16 : (size_ * 4 >= slots_.size() ? slots_.size() * 2
                                                          : slots_.size());
    std::vector<Slot> old_slots = std::move(slots_);
    std::vector<std::uint8_t> old_state = std::move(state_);
    slots_.assign(new_cap, Slot{});
    state_.assign(new_cap, kEmpty);
    mask_ = new_cap - 1;
    shift_ = 64;
    for (std::size_t c = new_cap; c > 1; c >>= 1) --shift_;
    used_ = 0;
    size_ = 0;
    for (std::size_t i = 0; i < old_slots.size(); ++i) {
      if (old_state[i] == kFull) Insert(old_slots[i].key, old_slots[i].value);
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::uint8_t> state_;
  std::size_t mask_ = 0;
  int shift_ = 64;          // 64 - log2(capacity)
  std::size_t size_ = 0;    // live entries
  std::size_t used_ = 0;    // live entries + tombstones
};

}  // namespace dctcpp
