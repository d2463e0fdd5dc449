#include "dctcpp/sim/checkpoint.h"

#include "dctcpp/net/packet.h"
#include "dctcpp/sim/simulator.h"

namespace dctcpp {

namespace {
// Section tags ("SIM ", "WKLD", "INFR", "SCHD").
constexpr std::uint32_t kTagSim = 0x53494d20;
constexpr std::uint32_t kTagWorkload = 0x574b4c44;
constexpr std::uint32_t kTagInfra = 0x494e4652;
constexpr std::uint32_t kTagSched = 0x53434844;
}  // namespace

void SavePacket(CheckpointWriter& w, const Packet& pkt) {
  w.U32(static_cast<std::uint32_t>(pkt.src));
  w.U32(static_cast<std::uint32_t>(pkt.dst));
  w.U32(pkt.tcp.src_port);
  w.U32(pkt.tcp.dst_port);
  w.U32(pkt.tcp.seq);
  w.U32(pkt.tcp.ack);
  std::uint8_t flags = 0;
  flags |= pkt.tcp.syn ? 1u : 0;
  flags |= pkt.tcp.fin ? 2u : 0;
  flags |= pkt.tcp.ack_flag ? 4u : 0;
  flags |= pkt.tcp.ece ? 8u : 0;
  flags |= pkt.tcp.cwr ? 16u : 0;
  flags |= pkt.corrupted ? 32u : 0;
  w.U8(flags);
  for (const SackBlock& b : pkt.tcp.sack) {
    w.U32(b.start);
    w.U32(b.end);
  }
  w.U8(static_cast<std::uint8_t>(pkt.ecn));
  w.I64(pkt.payload);
  w.U64(pkt.uid);
  w.I64(pkt.valiant_group);
}

Packet LoadPacket(CheckpointReader& r) {
  Packet pkt;
  pkt.src = static_cast<NodeId>(r.U32());
  pkt.dst = static_cast<NodeId>(r.U32());
  pkt.tcp.src_port = static_cast<PortNum>(r.U32());
  pkt.tcp.dst_port = static_cast<PortNum>(r.U32());
  pkt.tcp.seq = r.U32();
  pkt.tcp.ack = r.U32();
  const std::uint8_t flags = r.U8();
  pkt.tcp.syn = (flags & 1u) != 0;
  pkt.tcp.fin = (flags & 2u) != 0;
  pkt.tcp.ack_flag = (flags & 4u) != 0;
  pkt.tcp.ece = (flags & 8u) != 0;
  pkt.tcp.cwr = (flags & 16u) != 0;
  pkt.corrupted = (flags & 32u) != 0;
  for (SackBlock& b : pkt.tcp.sack) {
    b.start = r.U32();
    b.end = r.U32();
  }
  pkt.ecn = static_cast<Ecn>(r.U8());
  pkt.payload = static_cast<std::int32_t>(r.I64());
  pkt.uid = r.U64();
  pkt.valiant_group = static_cast<std::int16_t>(r.I64());
  return pkt;
}

void Simulator::SaveCheckpoint(CheckpointWriter& w,
                               const CheckpointHooks* hooks) const {
  w.Tag(kTagSim);
  w.I64(now_);
  w.Bool(stopped_);
  w.U64(packets_forwarded_);
  std::uint64_t rng_state[4];
  rng_.SaveState(rng_state);
  for (std::uint64_t s : rng_state) w.U64(s);
  invariants_.SaveState(w);
  // Construction-time sequences are audited, not restored: a correctly
  // rebuilt world reproduces them exactly, and a mismatch means the
  // restored topology differs from the saved one.
  w.U64(sequences_->next_impairment_stream);
  w.U64(sequences_->next_port_id);

  w.Tag(kTagWorkload);
  if (hooks != nullptr) hooks->SaveWorkload(w, shard_id_);

  w.Tag(kTagInfra);
  w.U64(checkpoint_clients_.size());
  for (const Checkpointable* c : checkpoint_clients_) c->SaveState(w);

  w.Tag(kTagSched);
  w.U64(scheduler_.next_seq());
  w.U64(scheduler_.executed());
  w.U64(scheduler_.PendingCount());
  // The calendar heap is rebuilt by the streams' LoadState; its lookahead
  // is rebuilt by topology construction and only audited.
  w.U64(delivered_);
  w.I64(lookahead_);
}

void Simulator::RestoreCheckpoint(CheckpointReader& r, CheckpointHooks* hooks) {
  r.ExpectTag(kTagSim);
  const Tick t = r.I64();
  // The wheel must be fresh (never run, nothing armed): RestoreClock
  // asserts it, and everything below re-arms against the restored clock.
  scheduler_.RestoreClock(t);
  now_ = t;
  stopped_ = r.Bool();
  packets_forwarded_ = r.U64();
  std::uint64_t rng_state[4];
  for (std::uint64_t& s : rng_state) s = r.U64();
  rng_.LoadState(rng_state);
  invariants_.LoadState(r);
  const std::uint64_t saved_streams = r.U64();
  const std::uint64_t saved_ports = r.U64();
  DCTCPP_ASSERT(saved_streams == sequences_->next_impairment_stream);
  DCTCPP_ASSERT(saved_ports == sequences_->next_port_id);
  (void)saved_streams;
  (void)saved_ports;

  // Phase 1: the workload re-creates its dynamic objects (sockets
  // re-register with hosts, wheel events re-arm with saved seqs).
  r.ExpectTag(kTagWorkload);
  if (hooks != nullptr) hooks->RestoreWorkload(r, shard_id_);

  // Phase 2: infrastructure scalars, in construction-registration order.
  // Host scalars land here, overwriting counters the workload phase
  // bumped while re-creating sockets.
  r.ExpectTag(kTagInfra);
  const std::uint64_t clients = r.U64();
  DCTCPP_ASSERT(clients == checkpoint_clients_.size());
  (void)clients;
  for (Checkpointable* c : checkpoint_clients_) c->LoadState(r);

  r.ExpectTag(kTagSched);
  scheduler_.SetNextSeq(r.U64());
  scheduler_.SetExecuted(r.U64());
  const std::uint64_t live = r.U64();
  // Every saved wheel arming must have been re-created — a mismatch means
  // a component forgot to re-arm (or armed something extra) on restore.
  DCTCPP_ASSERT(live == scheduler_.PendingCount());
  (void)live;
  delivered_ = r.U64();
  const Tick saved_lookahead = r.I64();
  DCTCPP_ASSERT(saved_lookahead == lookahead_);
  (void)saved_lookahead;
}

}  // namespace dctcpp
