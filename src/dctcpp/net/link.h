// Egress port: queue + serializing transmitter + propagation delay.
//
// An EgressPort is one direction of a physical link. Send() enqueues into
// the port's DropTailEcnQueue; a transmitter drains the queue at the line
// rate (one packet serializing at a time) and delivers each packet to the
// peer node after the propagation delay. This reproduces the store-and-
// forward pipeline whose capacity (C*D + B) the paper's incast bursts
// overflow.
//
// One transmitter and one wire serve both engines. Serializations settle
// lazily (SettleTo) and each packet's delivery instant is fixed at
// admission; the packet then propagates inside the port's own queue ring
// until DeliverHead hands it to the peer. The engines differ only in who
// fires DeliverHead: on the serial engine one pinned wheel event per port;
// on the sharded engine (net/parallel.h) the shard's arrival calendar,
// which orders ports by their head arrival. Only a port whose peer lives
// on another shard leaves its wire at admission: its copy goes to the
// destination shard's inbound ring for this port.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "dctcpp/net/impairment.h"
#include "dctcpp/net/packet.h"
#include "dctcpp/net/packet_ring.h"
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

/// One port's packet arrivals on one shard, leaving in strictly increasing
/// (at, key) order: a local port's own wire, or a cross-shard port's
/// inbound ring (net/parallel.h). A shard's ArrivalCalendar orders these
/// streams by their head arrival.
class ArrivalStream {
 public:
  /// Delivers the head arrival, due now. Returns false when the stream is
  /// empty afterwards; otherwise stores its new head in (*at, *key).
  virtual bool DeliverHead(Tick* at, std::uint64_t* key) = 0;

 protected:
  ~ArrivalStream() = default;
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

class ArrivalCalendar;
class InboundRing;
class ParallelSimulation;

class EgressPort : public ArrivalStream, public Checkpointable {
 public:
  /// `peer_sim` is the Simulator owning the peer node; only consulted in
  /// sharded mode (sim.parallel() != nullptr), where a peer on another
  /// shard makes this a cross-shard port. Defaults to the port's own
  /// world.
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
  /// delay on a port that delivers from its own wire, until the next
  /// admission on a cross-shard port, which delivers nothing itself.
  /// Admission/marking decisions always run on settled state, and a
  /// serial port's value is exact whenever the simulator is drained.
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

  /// Delivers the wire's head packet (ArrivalStream): fired by the
  /// shard's calendar on the sharded engine. The serial engine's delivery
  /// event runs the same DeliverWireHead.
  bool DeliverHead(Tick* at, std::uint64_t* key) override;

  /// Checkpoint (registered with the owning Simulator at construction):
  /// queue contents, the serializing packet with its lazy finish instant,
  /// the propagation pipeline, the impairment stage, counters, and — on
  /// the serial engine — the delivery event's exact arming. A local
  /// sharded port re-arms its shard's calendar on load instead.
  void SaveState(CheckpointWriter& w) const override;
  void LoadState(CheckpointReader& r) override;

 private:
  friend class ImpairmentStage;

  /// Shared tail of Send/InjectReleased: queue admission (counting
  /// overflow drops in the ledger), the amortized byte audit, and the
  /// transmitter kick.
  void EnqueueForTransmit(const Packet& pkt);

  /// Re-entry point for packets the impairment stage held for reordering:
  /// straight into the queue, skipping re-impairment.
  void InjectReleased(const Packet& pkt) { EnqueueForTransmit(pkt); }

  /// Hands the wire's head packet to the peer.
  void DeliverWireHead();

  /// Calendar key of the wire's head: its FIFO position among every
  /// packet this port admitted (`wire_seq_` itself while `due_` is
  /// empty: the next packet's).
  std::uint64_t HeadKey() const {
    return (port_gid_ << 32) | ((wire_seq_ - due_.Size()) & 0xffffffffu);
  }

  /// Serialization time of `size` wire bytes (the two common sizes are
  /// precomputed).
  Tick TxTime(Bytes size) const {
    return size == tx_size_data_  ? tx_time_data_
           : size == tx_size_ack_ ? tx_time_ack_
                                  : config_.rate.TransmissionTime(size);
  }

  /// Lazy transmitter: replays every serialization that virtually
  /// completed at or before `t`. The serving packet moves to the
  /// propagation stage, or retires on a cross-shard port (its copy is
  /// already handed off), and the next queued packet begins serializing
  /// at the exact tick the wire freed. Called at the port's observation
  /// points (enqueue admission, each delivery); the no-op case (wire idle
  /// or still serializing) stays inline.
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
  // Sharded-mode state (see net/parallel.h). Every wire packet carries
  // the key port gid << 32 | wire seq. A local port (peer on its own
  // shard) keeps its wire and arms `calendar_` instead of the pinned
  // delivery event. A cross-shard port hands (due, key, packet) to the
  // peer shard's `inbound_` ring at admission and has no wire. RED draws
  // from the port's private stream instead of the (shard-local,
  // draw-order-fragile) run RNG.
  ParallelSimulation* psim_ = nullptr;
  ArrivalCalendar* calendar_ = nullptr;
  InboundRing* inbound_ = nullptr;
  int src_shard_ = 0;
  std::uint64_t port_gid_ = 0;
  std::uint64_t wire_seq_ = 0;  ///< packets ever admitted
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
  // last admitted packet's. `due_` holds the delivery instant of every
  // admitted packet not yet delivered (queued, serving or propagating),
  // in admission order. Propagation delay is constant
  // per port, so the wire delivers in FIFO order: the port's delivery
  // event (serial) or its calendar entry (sharded) tracks `due_.Front()`,
  // armed exactly while `due_` is non-empty — one wheel node or heap
  // entry per port however many packets it carries.
  FifoRing<Tick> due_{64};
  Tick t_fin_ = 0;
  Tick tail_fin_ = 0;
  PinnedEvent deliver_ev_;
};

}  // namespace dctcpp
