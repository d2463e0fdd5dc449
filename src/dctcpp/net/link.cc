#include "dctcpp/net/link.h"

#include "dctcpp/net/parallel.h"
#include "dctcpp/util/assert.h"
#include "dctcpp/util/flight_recorder.h"
#include "dctcpp/util/log.h"
#include "dctcpp/util/profile.h"

namespace dctcpp {

namespace {

/// Folds the legacy `LinkConfig::random_loss` knob into the impairment
/// config. Both knobs set means two independent loss sources.
ImpairmentConfig EffectiveImpairment(const LinkConfig& config) {
  ImpairmentConfig eff = config.impairment;
  if (config.random_loss > 0.0) {
    eff.random_loss =
        1.0 - (1.0 - eff.random_loss) * (1.0 - config.random_loss);
  }
  return eff;
}

/// Stream-id base for per-port RED randomness in sharded mode, disjoint
/// from the impairment stream ids (dense from 0) and the per-socket base
/// (1 << 40 | ...).
constexpr std::uint64_t kRedStreamBase = 1ULL << 41;

}  // namespace

EgressPort::EgressPort(Simulator& sim, const LinkConfig& config,
                       PacketSink& peer, Simulator* peer_sim)
    : sim_(sim),
      config_(config),
      peer_(peer),
      queue_(config.buffer_bytes, config.ecn_threshold),
      finish_ev_(
          sim, [](void* p) { static_cast<EgressPort*>(p)->FinishTransmission(); },
          this),
      deliver_ev_(
          sim, [](void* p) { static_cast<EgressPort*>(p)->DeliverHead(); },
          this) {
  sim.RegisterCheckpointable(this);
  if (sim.parallel() != nullptr) {
    psim_ = sim.parallel();
    src_shard_ = sim.shard_id();
    dst_shard_ = peer_sim != nullptr ? peer_sim->shard_id() : src_shard_;
    // Every port claims a gid (whether or not it crosses shards) so the
    // calendar key space depends only on topology-construction order.
    port_gid_ = sim.NextPortId();
    // Calendar entries name this port by gid (key >> 32); the registry
    // lets checkpoint restore re-resolve each entry's sink pointer.
    psim_->RegisterPortSink(port_gid_, &peer_, dst_shard_);
    // A zero-delay link would make the conservative lookahead zero.
    DCTCPP_ASSERT(config.propagation_delay > 0);
    // Feed the window width: this link bounds how fast an event on
    // src_shard_ can influence dst_shard_ (or, intra-shard, how far the
    // shard's wheel may run before re-reading its own calendar).
    psim_->ObserveChannel(src_shard_, dst_shard_, config.propagation_delay);
  }
  if (config.red) {
    if (psim_ != nullptr) {
      red_rng_ = sim.StreamRng(kRedStreamBase + port_gid_);
      queue_.EnableRed(config.red_config, &red_rng_);
    } else {
      queue_.EnableRed(config.red_config, &sim.rng());
    }
  }
  const ImpairmentConfig eff = EffectiveImpairment(config);
  if (eff.Any()) {
    impairment_ = std::make_unique<ImpairmentStage>(sim, eff, *this);
  }
  tx_size_data_ = kMss + kHeaderBytes;
  tx_time_data_ = config_.rate.TransmissionTime(tx_size_data_);
  tx_size_ack_ = kHeaderBytes;
  tx_time_ack_ = config_.rate.TransmissionTime(tx_size_ack_);
}

EgressPort::~EgressPort() {
  AuditQueueBytes();
  CheckConservation();
}

void EgressPort::Send(const Packet& pkt) {
  if (impairment_ != nullptr) {
    Packet copy = pkt;
    bool duplicate = false;
    if (!impairment_->Process(copy, &duplicate)) return;
    EnqueueForTransmit(copy);
    if (duplicate) EnqueueForTransmit(copy);
    return;
  }
  EnqueueForTransmit(pkt);
}

void EgressPort::EnqueueForTransmit(const Packet& pkt) {
  DCTCPP_PROFILE_SCOPE(kEnqueue);
  // Catch up on serializations that virtually completed before now, so the
  // admission and marking decisions below see exactly the occupancy an
  // eventful transmitter would have shown.
  if (psim_ == nullptr) SettleTo(sim_.Now());
  FlightRecorder* const fr = sim_.flight_recorder();
  const std::uint64_t marked_before =
      fr != nullptr ? queue_.stats().marked : 0;
  if (!queue_.Enqueue(pkt)) {
    sim_.invariants().CountDropped();
    if (fr != nullptr) {
      fr->Record(FrEvent::kDrop, sim_.shard_id(), sim_.Now(),
                 FrPortPayload(port_gid_, pkt.uid));
    }
    if (LogEnabled(LogLevel::kTrace)) {
      char buf[Packet::kDescribeBufSize];
      Log(LogLevel::kTrace, "drop at %s: %s",
          FormatTick(sim_.Now()).c_str(), pkt.DescribeTo(buf, sizeof buf));
    }
    return;
  }
  if (fr != nullptr) {
    fr->Record(queue_.stats().marked != marked_before ? FrEvent::kMark
                                                      : FrEvent::kEnqueue,
               sim_.shard_id(), sim_.Now(), FrPortPayload(port_gid_, pkt.uid));
  }
  sim_.CountForwardedPacket();
  if ((queue_.stats().enqueued & (kByteAuditPeriod - 1)) == 0) {
    AuditQueueBytes();
  }
  if (!transmitting_) {
    if (psim_ != nullptr) {
      StartTransmission();
    } else if (!queue_.Empty()) {
      BeginServiceAt(sim_.Now());
    }
  }
}

void EgressPort::StartTransmission() {
  if (queue_.Empty()) return;
  transmitting_ = true;
  // One-copy path: the head queued packet becomes the serving packet in
  // place; its ring slot — written once at Enqueue — IS the wire.
  in_flight_bytes_ = queue_.BeginService().WireSize();
  const Tick tx = in_flight_bytes_ == tx_size_data_ ? tx_time_data_
                  : in_flight_bytes_ == tx_size_ack_
                      ? tx_time_ack_
                      : config_.rate.TransmissionTime(in_flight_bytes_);
  finish_ev_.ArmIn(tx);
}

void EgressPort::BeginServiceAt(Tick start) {
  transmitting_ = true;
  // One-copy path: the head queued packet becomes the serving packet in
  // place; its ring slot — written once at Enqueue — IS the wire.
  in_flight_bytes_ = queue_.BeginService().WireSize();
  const Tick tx = in_flight_bytes_ == tx_size_data_ ? tx_time_data_
                  : in_flight_bytes_ == tx_size_ack_
                      ? tx_time_ack_
                      : config_.rate.TransmissionTime(in_flight_bytes_);
  t_fin_ = start + tx;
  // Propagation: the packet arrives at the peer `delay` after the last bit
  // leaves the wire. Finish times are strictly increasing, so `due_` stays
  // FIFO-ordered; and since the armed delivery at `due_.Front()` has not
  // fired yet, `due` here is never in the past.
  const Tick due = t_fin_ + config_.propagation_delay;
  due_.PushBack(due);
  if (!deliver_armed_) {
    deliver_armed_ = true;
    deliver_ev_.ArmAt(due);
  }
}

void EgressPort::SettleSlow(Tick t) {
  while (transmitting_ && t_fin_ <= t) {
    queue_.FinishServiceToWire();  // serving -> propagating, zero copy
    transmitting_ = false;
    in_flight_bytes_ = 0;
    if (!queue_.Empty()) BeginServiceAt(t_fin_);
  }
}

void EgressPort::FinishTransmission() {
  DCTCPP_PROFILE_SCOPE(kEnqueue);
  // Sharded mode only — unsharded ports never arm `finish_ev_` (their
  // completions settle lazily through SettleTo).
  DCTCPP_DASSERT(psim_ != nullptr);
  transmitting_ = false;
  in_flight_bytes_ = 0;
  // Sharded mode: the wire is the destination shard's arrival calendar.
  // (port gid, wire seq) makes the delivery key unique and canonical —
  // the same packet sorts to the same place whatever the shard count.
  const Tick due = sim_.Now() + config_.propagation_delay;
  const std::uint64_t key = (port_gid_ << 32) | (wire_seq_++ & 0xffffffffu);
  ++handed_off_;
  // The cross-shard copy into the peer's calendar is unavoidable (the
  // peer owns its arrival storage); it is the packet's only post-enqueue
  // copy, and the serving slot then retires.
  psim_->Handoff(src_shard_, dst_shard_, due, key, &peer_, queue_.Serving());
  queue_.DropServing();
  if ((++conservation_clock_ & (kConservationPeriod - 1)) == 0) {
    CheckConservation();
  }
  StartTransmission();
}

void EgressPort::DeliverHead() {
  DCTCPP_PROFILE_SCOPE(kEnqueue);
  // The head's serialization finished at `due - delay`, at or before now:
  // settle so the packet sits in the propagation stage and the next
  // serialization is already underway.
  SettleTo(sim_.Now());
  // Delivering in place is safe: the callee can re-enter Send, but only on
  // *other* ports (a packet never routes back out the port it arrived on),
  // so the staged ring cannot grow or reallocate under this reference.
  peer_.Deliver(queue_.PropagatingFront());
  queue_.PopPropagating();
  due_.PopFront();
  ++delivered_;
  if ((++conservation_clock_ & (kConservationPeriod - 1)) == 0) {
    CheckConservation();
  }
  if (!due_.Empty()) {
    deliver_ev_.ArmAt(due_.Front());
  } else {
    deliver_armed_ = false;
  }
}

void EgressPort::CheckConservation() {
  // Every packet the queue ever accepted must be exactly one of:
  // delivered, waiting in the queue, serializing, or on the wire. In
  // sharded mode "on the wire" is the peer's calendar, whose contents
  // this side must not read; the handoff counter takes the role of
  // delivered + propagating on the source side.
  if (psim_ != nullptr) {
    const std::uint64_t resident =
        queue_.PacketCount() + (transmitting_ ? 1u : 0u);
    if (queue_.stats().enqueued != handed_off_ + resident) {
      sim_.invariants().Violate(
          "port-conservation",
          "accepted=%llu != handed_off=%llu + queued=%zu + serializing=%u",
          static_cast<unsigned long long>(queue_.stats().enqueued),
          static_cast<unsigned long long>(handed_off_), queue_.PacketCount(),
          transmitting_ ? 1u : 0u);
    }
    return;
  }
  const std::size_t propagating = queue_.PropagatingCount();
  const std::uint64_t resident =
      queue_.PacketCount() + (transmitting_ ? 1u : 0u) + propagating;
  if (queue_.stats().enqueued != delivered_ + resident) {
    sim_.invariants().Violate(
        "port-conservation",
        "accepted=%llu != delivered=%llu + queued=%zu + serializing=%u + "
        "propagating=%zu",
        static_cast<unsigned long long>(queue_.stats().enqueued),
        static_cast<unsigned long long>(delivered_), queue_.PacketCount(),
        transmitting_ ? 1u : 0u, propagating);
  }
}

void EgressPort::SaveState(CheckpointWriter& w) const {
  queue_.SaveState(w);
  if (impairment_ != nullptr) impairment_->SaveState(w);
  std::uint64_t red_state[4];
  red_rng_.SaveState(red_state);
  for (std::uint64_t s : red_state) w.U64(s);
  w.Bool(transmitting_);
  if (transmitting_) {
    // The serving packet is inside the queue blob already (region sizes
    // lead it).
    w.I64(in_flight_bytes_);
    if (psim_ != nullptr) {
      // Sharded: the eventful finish is pending — save its exact arming.
      Tick at = 0;
      std::uint64_t seq = 0;
      finish_ev_.Arming(&at, &seq);
      w.I64(at);
      w.U64(seq);
    } else {
      // Unsharded: no finish event exists; the lazy finish instant is the
      // whole serialization state. Unsettled virtual completions are
      // checkpoint-faithful as-is — restoring the same (t_fin_, due_,
      // delivery arming) replays the same settlements.
      w.I64(t_fin_);
    }
  }
  w.U64(wire_seq_);
  w.U64(handed_off_);
  w.U64(delivered_);
  w.U64(conservation_clock_);
  due_.SaveState(w);
  w.Bool(deliver_armed_);
  if (deliver_armed_) {
    Tick at = 0;
    std::uint64_t seq = 0;
    deliver_ev_.Arming(&at, &seq);
    w.I64(at);
    w.U64(seq);
  }
}

void EgressPort::LoadState(CheckpointReader& r) {
  queue_.LoadState(r);
  if (impairment_ != nullptr) impairment_->LoadState(r);
  std::uint64_t red_state[4];
  for (std::uint64_t& s : red_state) s = r.U64();
  red_rng_.LoadState(red_state);
  transmitting_ = r.Bool();
  if (transmitting_) {
    in_flight_bytes_ = r.I64();
    if (psim_ != nullptr) {
      const Tick at = r.I64();
      const std::uint64_t seq = r.U64();
      finish_ev_.ArmAtWithSeq(at, seq);
    } else {
      t_fin_ = r.I64();
    }
  }
  wire_seq_ = r.U64();
  handed_off_ = r.U64();
  delivered_ = r.U64();
  conservation_clock_ = r.U64();
  due_.LoadState(r);
  deliver_armed_ = r.Bool();
  if (deliver_armed_) {
    const Tick at = r.I64();
    const std::uint64_t seq = r.U64();
    deliver_ev_.ArmAtWithSeq(at, seq);
  }
}

void EgressPort::AuditQueueBytes() {
  const Bytes actual = queue_.ComputeOccupancyBytes();
  if (actual != queue_.OccupancyBytes()) {
    sim_.invariants().Violate(
        "queue-bytes",
        "occupancy counter %lld != %lld bytes actually resident "
        "(%zu packets)",
        static_cast<long long>(queue_.OccupancyBytes()),
        static_cast<long long>(actual), queue_.PacketCount());
  }
}

}  // namespace dctcpp
