// Drop-tail FIFO with DCTCP-style ECN marking.
//
// Models a static per-port shared-buffer switch queue (the paper's NetFPGA
// switch: 128 KB per port, marking threshold K = 32 KB). Marking is against
// the *instantaneous* queue occupancy at enqueue time, as specified by
// DCTCP: every arriving ECN-capable packet is marked CE while occupancy
// exceeds K. Packets from non-ECN transports are never marked, only
// dropped when the buffer is full.
#pragma once

#include <cstdint>
#include <optional>

#include "dctcpp/net/packet.h"
#include "dctcpp/net/packet_ring.h"
#include "dctcpp/sim/checkpoint.h"
#include "dctcpp/util/rng.h"
#include "dctcpp/util/units.h"

namespace dctcpp {

/// RED (random early detection) marking parameters — the classic AQM the
/// DCTCP work compares its instantaneous-threshold marking against. The
/// average queue is an EWMA updated per arrival; ECT packets are marked
/// with probability ramping from 0 at `min_th` to `max_p` at `max_th`,
/// and always above `max_th`.
struct RedConfig {
  Bytes min_th = 16 * 1024;
  Bytes max_th = 64 * 1024;
  double max_p = 0.1;
  double weight = 0.002;  ///< EWMA gain for the average queue
};

class DropTailEcnQueue {
 public:
  struct Stats {
    std::uint64_t enqueued = 0;
    std::uint64_t dropped = 0;
    std::uint64_t marked = 0;
    Bytes max_occupancy = 0;  ///< high-water mark over the run
  };

  /// `capacity`: byte limit of the buffer; `ecn_threshold` (K): occupancy
  /// above which arriving ECT packets are marked CE. `ecn_threshold <= 0`
  /// disables marking (plain drop-tail).
  DropTailEcnQueue(Bytes capacity, Bytes ecn_threshold);

  /// Switches the queue to RED marking (replacing the instantaneous-K
  /// rule). `rng` supplies the probabilistic marking decisions and must
  /// outlive the queue.
  void EnableRed(const RedConfig& config, Rng* rng);
  bool RedEnabled() const { return red_rng_ != nullptr; }
  double AverageQueue() const { return red_avg_; }

  /// Attempts to enqueue; returns false (and counts a drop) when the packet
  /// does not fit. The stored copy's CE codepoint may be set.
  bool Enqueue(const Packet& pkt);

  /// Removes and returns the head packet, or nullopt when empty.
  /// Standalone-queue API: not usable while service staging is active.
  std::optional<Packet> Dequeue();

  /// Standalone-queue drain: the head queued packet in place, then an
  /// explicit pop. Preconditions: !Empty().
  const Packet& Front() const { return queue_.At(QueuedBase()); }
  void PopFront();

  bool Empty() const { return PacketCount() == 0; }
  /// Packets awaiting service (the *queued* region only: a packet being
  /// serialized or propagating on the wire no longer occupies the buffer,
  /// exactly as before staging — see BeginService).
  std::size_t PacketCount() const {
    return queue_.Size() - n_propagating_ - (serving_ ? 1u : 0u);
  }
  Bytes OccupancyBytes() const { return occupancy_; }

  // -------------------------------------------------------------------------
  // Staged service: the one-copy egress pipeline. The backing FIFO holds,
  // in arrival order from the front, [propagating | serving | queued]
  // regions; a packet is copied exactly once (Enqueue's slot store) and
  // then *stays in place* while it serializes and propagates — the
  // transitions below only move region boundaries. Occupancy, drop-tail
  // admission, and ECN marking all read the queued region alone, so a
  // serializing or propagating packet no longer occupies the buffer.
  // The EgressPort is the only caller; standalone queues (tests, RED
  // harnesses) never stage and see a plain FIFO.

  /// Front queued packet -> serving: leaves the buffer accounting
  /// (occupancy excludes it, as a serializing packet lives in the port's
  /// in-flight register). Returns the serving slot. Preconditions:
  /// !Empty(), no packet already serving.
  const Packet& BeginService();
  /// The most recently admitted packet (the stored copy, CE mark
  /// included). Precondition: a packet is resident.
  const Packet& Back() const { return queue_.At(queue_.Size() - 1); }
  /// The packet currently serializing. Precondition: a BeginService is
  /// outstanding.
  const Packet& Serving() const {
    DCTCPP_DASSERT(serving_);
    return queue_.At(n_propagating_);
  }
  /// Serving -> propagating, in place (the unsharded wire).
  void FinishServiceToWire();
  /// Removes the serving packet (sharded mode: its copy went into the
  /// peer shard's arrival calendar at admission). Precondition: no
  /// propagating region (sharded ports never have one).
  void DropServing();

  std::size_t PropagatingCount() const { return n_propagating_; }
  /// Oldest in-flight packet — the next to be delivered. Precondition:
  /// PropagatingCount() > 0.
  const Packet& PropagatingFront() const {
    DCTCPP_DASSERT(n_propagating_ > 0);
    return queue_.Front();
  }
  /// The i-th in-flight packet (0 = PropagatingFront). Precondition:
  /// i < PropagatingCount().
  const Packet& PropagatingAt(std::size_t i) const {
    DCTCPP_DASSERT(i < n_propagating_);
    return queue_.At(i);
  }
  /// Retires the delivered head of the propagating region.
  void PopPropagating();

  /// Recomputes occupancy by walking the resident *queued* packets — the
  /// ground truth the incrementally-maintained `OccupancyBytes()` must
  /// match. O(n); used by the egress port's amortized buffer audit.
  Bytes ComputeOccupancyBytes() const {
    Bytes total = 0;
    for (std::size_t i = QueuedBase(); i < queue_.Size(); ++i) {
      total += queue_.At(i).WireSize();
    }
    return total;
  }
  Bytes capacity() const { return capacity_; }
  Bytes ecn_threshold() const { return ecn_threshold_; }

  const Stats& stats() const { return stats_; }

  /// Checkpoint: resident packets (FIFO order), occupancy, stats, and the
  /// RED average. Configuration (capacity, K, RED parameters, RNG binding)
  /// is reconstructed by rebuilding the topology.
  void SaveState(CheckpointWriter& w) const;
  void LoadState(CheckpointReader& r);

 private:
  bool RedShouldMark();

  /// FIFO index of the first queued packet (past the staged regions).
  std::size_t QueuedBase() const {
    return n_propagating_ + (serving_ ? 1u : 0u);
  }

  Bytes capacity_;
  Bytes ecn_threshold_;
  Bytes occupancy_ = 0;
  PacketRing queue_;
  std::size_t n_propagating_ = 0;  ///< staged region sizes; see BeginService
  bool serving_ = false;
  Stats stats_;

  RedConfig red_config_;
  Rng* red_rng_ = nullptr;  ///< non-null iff RED is enabled
  double red_avg_ = 0.0;
};

}  // namespace dctcpp
