// Egress port: queue + serializing transmitter + propagation delay.
//
// An EgressPort is one direction of a physical link. Send() enqueues into
// the port's DropTailEcnQueue; a transmitter drains the queue at the line
// rate (one packet serializing at a time) and delivers each packet to the
// peer node after the propagation delay. This reproduces the store-and-
// forward pipeline whose capacity (C*D + B) the paper's incast bursts
// overflow.
//
// One transmitter serves both engines. Serializations settle lazily
// (SettleTo) and each packet's delivery instant is fixed at admission;
// the engines differ only in the wire. On the serial engine the packet
// propagates inside the port and one pinned delivery event drains it; on
// the sharded engine (net/parallel.h) its copy goes into the destination
// shard's arrival calendar at admission, and the port arms no wheel
// event at all.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include <memory>

#include "dctcpp/net/impairment.h"
#include "dctcpp/net/packet.h"
#include "dctcpp/net/queue.h"
#include "dctcpp/sim/pinned_event.h"
#include "dctcpp/sim/simulator.h"
#include "dctcpp/util/assert.h"
#include "dctcpp/util/units.h"

namespace dctcpp {

/// Anything that can accept a delivered packet (hosts and switches).
/// The reference stays valid only for the duration of the call; sinks that
/// keep the packet (forwarding into a queue) copy it into their own slot.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void Deliver(const Packet& pkt) = 0;
};

/// Configuration of one link direction.
struct LinkConfig {
  DataRate rate = DataRate::GigabitsPerSec(1);
  Tick propagation_delay = 10 * kMicrosecond;
  Bytes buffer_bytes = 128 * kKiB;
  Bytes ecn_threshold = 32 * kKiB;  ///< K; <= 0 disables marking
  /// Replace the instantaneous-K marking with classic RED (the AQM the
  /// DCTCP line of work compares against); see RedConfig.
  bool red = false;
  RedConfig red_config;
  /// Full per-link fault model (burst loss, reordering, duplication,
  /// corruption, flaps, forced drops); see net/impairment.h.
  ImpairmentConfig impairment;
};

class ParallelSimulation;

class EgressPort : public Checkpointable {
 public:
  /// `peer_sim` is the Simulator owning the peer node; only consulted in
  /// sharded mode (sim.parallel() != nullptr), where it selects the
  /// destination shard of this port's deliveries. Defaults to the port's
  /// own world.
  EgressPort(Simulator& sim, const LinkConfig& config, PacketSink& peer,
             Simulator* peer_sim = nullptr);
  ~EgressPort() override;

  EgressPort(const EgressPort&) = delete;
  EgressPort& operator=(const EgressPort&) = delete;

  /// Enqueues the packet for transmission; drops silently (with stats) when
  /// the buffer is full.
  void Send(const Packet& pkt);

  const DropTailEcnQueue& queue() const { return queue_; }
  const LinkConfig& config() const { return config_; }

  /// The node this port feeds (structural walks in tests/benches).
  PacketSink& peer() const { return peer_; }

  /// Bytes queued plus the packet currently on the wire; the quantity a
  /// hardware queue-length register would report. Ports settle
  /// serializations lazily (see SettleTo), so an external sampler may see
  /// serializations that virtually completed since the port's last
  /// observation still counted here — within the trailing propagation
  /// delay on a serial port, until the next admission on a sharded port,
  /// which has no delivery event. Admission/marking decisions always run
  /// on settled state, and a serial port's value is exact whenever the
  /// simulator is drained.
  Bytes BacklogBytes() const {
    return queue_.OccupancyBytes() + in_flight_bytes_;
  }

  /// True while a packet is serializing (same lazy-settlement caveat as
  /// BacklogBytes).
  bool Transmitting() const { return transmitting_; }

  /// Packets dropped by the random-loss injector (not buffer overflow).
  std::uint64_t random_losses() const {
    return impairment_ ? impairment_->stats().random_losses : 0;
  }

  /// The fault pipeline, or nullptr when this link is unimpaired.
  const ImpairmentStage* impairment() const { return impairment_.get(); }

  /// Checkpoint (registered with the owning Simulator at construction):
  /// queue contents, the serializing packet with its lazy finish instant,
  /// the propagation pipeline, the impairment stage, counters, and the
  /// delivery event's exact arming.
  void SaveState(CheckpointWriter& w) const override;
  void LoadState(CheckpointReader& r) override;

 private:
  friend class ImpairmentStage;

  /// Flat power-of-two ring of absolute delivery times, FIFO. Covers every
  /// packet of a serial port — queued, serving and propagating — since
  /// due times are computed at admission. No steady-state allocation.
  class TickFifo {
   public:
    TickFifo() : buf_(64) {}
    bool Empty() const { return size_ == 0; }
    Tick Front() const {
      DCTCPP_DASSERT(size_ > 0);
      return buf_[head_];
    }
    void PushBack(Tick t) {
      if (size_ == buf_.size()) Grow();
      buf_[(head_ + size_) & (buf_.size() - 1)] = t;
      ++size_;
    }
    void PopFront() {
      DCTCPP_DASSERT(size_ > 0);
      head_ = (head_ + 1) & (buf_.size() - 1);
      --size_;
    }

    void SaveState(CheckpointWriter& w) const {
      w.U64(size_);
      for (std::size_t i = 0; i < size_; ++i) {
        w.I64(buf_[(head_ + i) & (buf_.size() - 1)]);
      }
    }
    void LoadState(CheckpointReader& r) {
      DCTCPP_ASSERT(size_ == 0);
      const std::uint64_t n = r.U64();
      for (std::uint64_t i = 0; i < n; ++i) PushBack(r.I64());
    }

   private:
    void Grow() {
      std::vector<Tick> bigger(buf_.size() * 2);
      for (std::size_t i = 0; i < size_; ++i) {
        bigger[i] = buf_[(head_ + i) & (buf_.size() - 1)];
      }
      buf_ = std::move(bigger);
      head_ = 0;
    }

    std::vector<Tick> buf_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  /// Shared tail of Send/InjectReleased: queue admission (counting
  /// overflow drops in the ledger), the amortized byte audit, and the
  /// transmitter kick.
  void EnqueueForTransmit(const Packet& pkt);

  /// Re-entry point for packets the impairment stage held for reordering:
  /// straight into the queue, skipping re-impairment.
  void InjectReleased(const Packet& pkt) { EnqueueForTransmit(pkt); }

  void DeliverHead();

  /// Serialization time of `size` wire bytes (the two common sizes are
  /// precomputed).
  Tick TxTime(Bytes size) const {
    return size == tx_size_data_  ? tx_time_data_
           : size == tx_size_ack_ ? tx_time_ack_
                                  : config_.rate.TransmissionTime(size);
  }

  /// Lazy transmitter: replays every serialization that virtually
  /// completed at or before `t`. The serving packet moves to the
  /// propagation stage (serial wire) or retires (sharded: its calendar
  /// copy is already deposited), and the next queued packet begins
  /// serializing at the exact tick the wire freed. Called at the port's
  /// observation points (enqueue admission, each serial delivery); the
  /// no-op case (wire idle or still serializing) stays inline.
  void SettleTo(Tick t) {
    if (transmitting_ && t_fin_ <= t) SettleSlow(t);
  }
  void SettleSlow(Tick t);

  /// Begins serializing the head queued packet as of instant `start`
  /// (which may lie in the past when invoked from SettleTo). No event is
  /// armed: the finish instant lives in `t_fin_` until an observation
  /// settles it.
  void BeginServiceAt(Tick start);

  /// Counts one packet leaving the port and runs the periodic
  /// conservation check.
  void Retire();

  /// O(1) conservation check: every packet the queue ever accepted is
  /// retired, still queued, serializing, or propagating. Run every
  /// `kConservationPeriod`-th retirement and at teardown — the counters it
  /// compares are valid at any instant, so sampling loses no coverage,
  /// only latency-to-detection.
  void CheckConservation();

  /// O(n) audit that the queue's occupancy counter matches the wire sizes
  /// of the packets it actually holds; run every `kByteAuditPeriod`-th
  /// enqueue and at teardown.
  void AuditQueueBytes();

  static constexpr std::uint64_t kByteAuditPeriod = 1024;      // power of two
  static constexpr std::uint64_t kConservationPeriod = 64;     // power of two

  Simulator& sim_;
  LinkConfig config_;
  PacketSink& peer_;
  DropTailEcnQueue queue_;
  std::unique_ptr<ImpairmentStage> impairment_;
  // Sharded-mode state (see net/parallel.h). When psim_ is set the
  // propagation stage is replaced by a calendar handoff: admission
  // deposits (due, port gid << 32 | wire seq) into the peer shard and the
  // pinned delivery event never arms. RED then draws from the port's
  // private stream instead of the (shard-local, draw-order-fragile) run
  // RNG.
  ParallelSimulation* psim_ = nullptr;
  int src_shard_ = 0;
  int dst_shard_ = 0;
  std::uint64_t port_gid_ = 0;
  std::uint64_t wire_seq_ = 0;
  Rng red_rng_{0};
  bool transmitting_ = false;
  Bytes in_flight_bytes_ = 0;
  std::uint64_t retired_ = 0;
  // Serialization times for the two wire sizes that cover essentially every
  // packet (full data segment, bare ACK), precomputed once so the hot path
  // skips the 128-bit division in DataRate::TransmissionTime.
  Tick tx_time_data_ = 0;
  Bytes tx_size_data_ = 0;
  Tick tx_time_ack_ = 0;
  Bytes tx_size_ack_ = 0;
  // One-copy egress: the serializing packet and the packets in flight on
  // the wire stay *inside the queue's ring* — BeginService/
  // FinishServiceToWire/PopPropagating move region boundaries over slots
  // written once at Enqueue.
  //
  // No port arms a wheel event per serialization (see the file header).
  // `t_fin_` holds the serving packet's finish instant, `tail_fin_` the
  // last admitted packet's. Propagation delay is constant per port, so a
  // serial port's deliveries leave in FIFO order: one pinned delivery
  // event tracks `due_.Front()`, armed exactly while `due_` is non-empty,
  // and is the port's only wheel node however many packets it carries.
  TickFifo due_;
  Tick t_fin_ = 0;
  Tick tail_fin_ = 0;
  PinnedEvent deliver_ev_;
};

}  // namespace dctcpp
