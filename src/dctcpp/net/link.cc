#include "dctcpp/net/link.h"

#include <algorithm>

#include "dctcpp/net/parallel.h"
#include "dctcpp/util/assert.h"
#include "dctcpp/util/flight_recorder.h"
#include "dctcpp/util/log.h"
#include "dctcpp/util/profile.h"

namespace dctcpp {

namespace {

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
      deliver_ev_(
          sim,
          [](void* p) {
            auto* port = static_cast<EgressPort*>(p);
            port->DeliverWireHead();
            if (!port->due_.Empty()) {
              port->deliver_ev_.ArmAt(port->due_.Front());
            }
          },
          this) {
  sim.RegisterCheckpointable(this);
  if (sim.parallel() != nullptr) {
    psim_ = sim.parallel();
    src_shard_ = sim.shard_id();
    const int dst_shard =
        peer_sim != nullptr ? peer_sim->shard_id() : src_shard_;
    // Every port claims a gid (whether or not it crosses shards) so the
    // calendar key space depends only on topology-construction order.
    port_gid_ = sim.NextPortId();
    if (dst_shard == src_shard_) {
      calendar_ = &psim_->calendar(src_shard_);
    } else {
      inbound_ = &psim_->AddInboundRing(peer_, dst_shard);
    }
    // A zero-delay link would make the conservative lookahead zero.
    DCTCPP_ASSERT(config.propagation_delay > 0);
    // Feed the window width: this link bounds how fast an event on
    // src_shard_ can influence dst_shard (or, intra-shard, how far the
    // shard's wheel may run before re-reading its own calendar).
    psim_->ObserveChannel(src_shard_, dst_shard, config.propagation_delay);
  }
  if (config.red) {
    if (psim_ != nullptr) {
      red_rng_ = sim.StreamRng(kRedStreamBase + port_gid_);
      queue_.EnableRed(config.red_config, &red_rng_);
    } else {
      queue_.EnableRed(config.red_config, &sim.rng());
    }
  }
  if (config.impairment.Any()) {
    impairment_ =
        std::make_unique<ImpairmentStage>(sim, config.impairment, *this);
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
  // Catch up on serializations that completed at or before now, so the
  // admission and marking decisions below see exactly the occupancy an
  // eventful transmitter would have shown — completions settle before a
  // same-tick admission, in both engines.
  const Tick now = sim_.Now();
  SettleTo(now);
  FlightRecorder* const fr = sim_.flight_recorder();
  const std::uint64_t marked_before =
      fr != nullptr ? queue_.stats().marked : 0;
  if (!queue_.Enqueue(pkt)) {
    sim_.invariants().CountDropped();
    if (fr != nullptr) {
      fr->Record(FrEvent::kDrop, sim_.shard_id(), now,
                 FrPortPayload(port_gid_, pkt.uid));
    }
    if (LogEnabled(LogLevel::kTrace)) {
      char buf[Packet::kDescribeBufSize];
      Log(LogLevel::kTrace, "drop at %s: %s", FormatTick(now).c_str(),
          pkt.DescribeTo(buf, sizeof buf));
    }
    return;
  }
  if (fr != nullptr) {
    fr->Record(queue_.stats().marked != marked_before ? FrEvent::kMark
                                                      : FrEvent::kEnqueue,
               sim_.shard_id(), now, FrPortPayload(port_gid_, pkt.uid));
  }
  sim_.CountForwardedPacket();
  if ((queue_.stats().enqueued & (kByteAuditPeriod - 1)) == 0) {
    AuditQueueBytes();
  }
  // The queue is FIFO and work-conserving and nothing leaves it but
  // through the wire, so the packet's wire exit and delivery instant are
  // fixed now. The stored slot is the one to ship: Enqueue may have
  // CE-marked it.
  const Packet& stored = queue_.Back();
  tail_fin_ = std::max(now, tail_fin_) + TxTime(stored.WireSize());
  const Tick due = tail_fin_ + config_.propagation_delay;
  if (inbound_ != nullptr) {
    // A cross-shard `due` is at or past the current window's end
    // (DESIGN.md Sec. 10), so handing the copy off now is safe. (port
    // gid, wire seq) makes the key unique and canonical — the same packet
    // sorts to the same place whatever the shard count.
    const std::uint64_t key = (port_gid_ << 32) | (wire_seq_++ & 0xffffffffu);
    psim_->Handoff(src_shard_, *inbound_, due, key, stored);
  } else {
    // Due times are strictly increasing, so `due_` stays FIFO-ordered and
    // only its head needs arming.
    if (due_.Empty()) {
      if (calendar_ != nullptr) {
        calendar_->Arm(due, HeadKey(), this);
      } else {
        deliver_ev_.ArmAt(due);
      }
    }
    due_.PushBack(due);
    ++wire_seq_;
  }
  if (!transmitting_) BeginServiceAt(now);
}

void EgressPort::BeginServiceAt(Tick start) {
  transmitting_ = true;
  // One-copy path: the head queued packet becomes the serving packet in
  // place; its ring slot — written once at Enqueue — IS the wire.
  in_flight_bytes_ = queue_.BeginService().WireSize();
  t_fin_ = start + TxTime(in_flight_bytes_);
}

void EgressPort::SettleSlow(Tick t) {
  while (transmitting_ && t_fin_ <= t) {
    transmitting_ = false;
    in_flight_bytes_ = 0;
    if (inbound_ != nullptr) {
      // Its copy was handed off at admission.
      queue_.DropServing();
      Retire();
    } else {
      queue_.FinishServiceToWire();  // serving -> propagating, zero copy
    }
    if (!queue_.Empty()) BeginServiceAt(t_fin_);
  }
}

void EgressPort::Retire() {
  if ((++retired_ & (kConservationPeriod - 1)) == 0) CheckConservation();
}

bool EgressPort::DeliverHead(Tick* at, std::uint64_t* key) {
  DeliverWireHead();
  if (due_.Empty()) return false;
  *at = due_.Front();
  *key = HeadKey();
  return true;
}

void EgressPort::DeliverWireHead() {
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
  Retire();
}

void EgressPort::CheckConservation() {
  // Every packet the queue ever accepted must be exactly one of: retired
  // (delivered to the peer, or — cross-shard — done serializing with its
  // copy already handed off), waiting in the queue, serializing, or
  // propagating on the port's wire.
  const std::size_t propagating = queue_.PropagatingCount();
  const std::uint64_t resident =
      queue_.PacketCount() + (transmitting_ ? 1u : 0u) + propagating;
  if (queue_.stats().enqueued != retired_ + resident) {
    sim_.invariants().Violate(
        "port-conservation",
        "accepted=%llu != retired=%llu + queued=%zu + serializing=%u + "
        "propagating=%zu",
        static_cast<unsigned long long>(queue_.stats().enqueued),
        static_cast<unsigned long long>(retired_), queue_.PacketCount(),
        transmitting_ ? 1u : 0u, propagating);
  }
}

void EgressPort::SaveState(CheckpointWriter& w) const {
  queue_.SaveState(w);
  if (impairment_ != nullptr) impairment_->SaveState(w);
  std::uint64_t red_state[4];
  red_rng_.SaveState(red_state);
  for (std::uint64_t s : red_state) w.U64(s);
  // No finish event exists: the lazy finish instants are the whole
  // serialization state. Unsettled completions are checkpoint-faithful
  // as-is — restoring the same (t_fin_, tail_fin_, due_, delivery arming)
  // replays the same settlements. The serving and propagating packets
  // are inside the queue blob already (region sizes lead it).
  w.Bool(transmitting_);
  if (transmitting_) {
    w.I64(in_flight_bytes_);
    w.I64(t_fin_);
  }
  w.I64(tail_fin_);
  w.U64(wire_seq_);
  w.U64(retired_);
  w.U64(due_.Size());
  due_.ForEach([&w](Tick t) { w.I64(t); });
  // A local sharded port's calendar entry is rebuilt from the head on
  // load; only the wheel needs its exact arming (the insertion seq).
  if (!due_.Empty() && calendar_ == nullptr) {
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
    t_fin_ = r.I64();
  }
  tail_fin_ = r.I64();
  wire_seq_ = r.U64();
  retired_ = r.U64();
  DCTCPP_ASSERT(due_.Empty());
  const std::uint64_t wire = r.U64();
  for (std::uint64_t i = 0; i < wire; ++i) due_.PushBack(r.I64());
  if (due_.Empty()) return;
  if (calendar_ != nullptr) {
    calendar_->Arm(due_.Front(), HeadKey(), this);
  } else {
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
