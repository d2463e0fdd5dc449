// Packet arrivals of one Simulator, ordered by port.
//
// Every packet's delivery instant is fixed when its egress port admits it
// (net/link.h), and every delivery is keyed (arrival tick, port gid << 32
// | per-port wire sequence). Port gids come from a construction-time
// sequence (Simulator::NextPortId) fixed by topology-build order, so the
// key means the same thing whether the world is one Simulator or S shards.
// Each port's arrivals leave in strictly increasing key order, so the
// calendar orders ports, not packets: a min-heap over the head of every
// stream with pending arrivals. At any tick the Simulator's run loop
// delivers calendar arrivals, in ascending key order, before wheel events.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dctcpp/util/time.h"

namespace dctcpp {

/// One port's packet arrivals into one Simulator, leaving in strictly
/// increasing (at, key) order: a local port's own wire, or a cross-shard
/// port's inbound ring (net/parallel.h).
class ArrivalStream {
 public:
  /// Delivers the head arrival, due now. Returns false when the stream is
  /// empty afterwards; otherwise stores its new head in (*at, *key).
  virtual bool DeliverHead(Tick* at, std::uint64_t* key) = 0;

 protected:
  ~ArrivalStream() = default;
};

/// Min-heap of the arrival streams with pending arrivals, ordered by each
/// stream's head (at, key). Keys are unique, so the order is total and
/// independent of arming order, and since every stream is itself in
/// (at, key) order, popping heads yields the arrivals in canonical order.
/// Entries are 24 bytes: the packets stay in their streams.
class ArrivalCalendar {
 public:
  bool Empty() const { return heap_.empty(); }
  /// Streams armed (ports with pending arrivals).
  std::size_t Size() const { return heap_.size(); }
  /// Heap capacity in bytes (footprint accounting).
  std::size_t bytes() const { return heap_.capacity() * sizeof(Head); }

  /// Earliest due tick, or kTickMax when empty.
  Tick NextTime() const { return heap_.empty() ? kTickMax : heap_[0].at; }

  /// Adds `stream`, whose head is (at, key). Called when a stream goes
  /// non-empty; a stream is armed at most once at a time.
  void Arm(Tick at, std::uint64_t key, ArrivalStream* stream) {
    heap_.push_back(Head{at, key, stream});
    SiftUp(heap_.size() - 1);
  }

  /// Delivers the earliest head and re-files its stream under its next
  /// head, or drops it when the stream ran dry. Precondition: !Empty().
  void DeliverEarliest();

 private:
  struct Head {
    Tick at;
    std::uint64_t key;
    ArrivalStream* stream;
  };
  /// (at, key) as one 128-bit compare, so the sift's child choice
  /// compiles to a conditional move instead of two unpredictable branches
  /// (calendar ticks are never negative).
  static bool Before(const Head& a, const Head& b) {
    using U128 = unsigned __int128;
    return (static_cast<U128>(a.at) << 64 | a.key) <
           (static_cast<U128>(b.at) << 64 | b.key);
  }
  void SiftUp(std::size_t i);
  void SiftDown(std::size_t i);

  std::vector<Head> heap_;
};

}  // namespace dctcpp
