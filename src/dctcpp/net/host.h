// End host: a NIC (single uplink) plus a transport demultiplexer.
//
// Transport endpoints (TCP sockets) register themselves by connection
// 4-tuple; listeners register by local port and receive packets for which
// no established connection matches (i.e. incoming SYNs). The Host knows
// nothing about TCP itself, keeping net below tcp in the layering.
//
// Demux is the per-packet control-plane hot path: handlers are
// trivially-copyable InlineHandler delegates stored in a flat
// open-addressing FlatFlowTable keyed by the packed 4-tuple (see
// util/flow_table.h).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "dctcpp/net/link.h"
#include "dctcpp/net/packet.h"
#include "dctcpp/sim/checkpoint.h"
#include "dctcpp/sim/simulator.h"
#include "dctcpp/util/flow_table.h"
#include "dctcpp/util/inline_function.h"

namespace dctcpp {

class Host : public PacketSink, public Checkpointable {
 public:
  using PacketHandler = InlineHandler<void(const Packet&)>;

  Host(Simulator& sim, NodeId id, std::string name)
      : sim_(sim), id_(id), name_(std::move(name)) {
    sim_.RegisterCheckpointable(this);
  }

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }
  Simulator& sim() { return sim_; }

  /// Installs the NIC; called once by the topology builder. `peer_sim`
  /// (the simulator owning `peer`) only matters in sharded mode, where
  /// the NIC port must know its peer's shard.
  void AttachUplink(const LinkConfig& config, PacketSink& peer,
                    Simulator* peer_sim = nullptr);
  bool HasUplink() const { return uplink_ != nullptr; }
  EgressPort& uplink() { return *uplink_; }

  /// Transmits a packet (source fields must already identify this host).
  /// Stamps the conservation uid into the caller's packet in place, so the
  /// NIC enqueue is the only copy on the emission path.
  void Send(Packet& pkt);
  void Send(Packet&& pkt) { Send(pkt); }

  /// Registers an established-connection handler keyed by
  /// (local port, remote host, remote port). At most one per key.
  void RegisterConnection(PortNum local_port, NodeId remote, PortNum rport,
                          PacketHandler handler);
  void UnregisterConnection(PortNum local_port, NodeId remote, PortNum rport);

  /// Registers a listener receiving packets to `local_port` that match no
  /// established connection (e.g. SYNs).
  void Listen(PortNum local_port, PacketHandler handler);
  void StopListening(PortNum local_port);

  /// Allocates an ephemeral source port (unique among this host's live
  /// registrations). Wraps within [10000, 65535) and skips ports still in
  /// use, so long multi-round runs never exhaust the range as long as old
  /// connections unregister.
  PortNum AllocatePort();

  void Deliver(const Packet& pkt) override;

  /// Local ports with at least one live registration (connection or
  /// listener), and the heap bytes of the table tracking them.
  std::size_t LivePortCount() const { return port_refs_.size(); }
  std::size_t PortTableBytes() const { return port_refs_.bytes(); }
  /// Heap bytes of the connection demux table.
  std::size_t DemuxTableBytes() const { return connections_.bytes(); }

  /// Packets that matched neither a connection nor a listener.
  std::uint64_t unmatched_packets() const { return unmatched_; }

  /// Segments discarded because impairment corrupted them in transit (the
  /// modelled TCP checksum failed on arrival).
  std::uint64_t checksum_drops() const { return checksum_drops_; }

  /// Stable per-host socket stream id: sockets draw their randomness
  /// (ISS, pacing jitter, slow-time evolution) from a private stream
  /// derived from (run seed, this id) so draw order never couples
  /// unrelated flows — the property sharded execution depends on, and a
  /// reproducibility win in its own right. Host ids and per-host creation
  /// order are fixed by the deterministic builders, so the id is
  /// shard-count-invariant.
  std::uint64_t NextSocketStreamId() {
    DCTCPP_ASSERT(next_socket_serial_ < (1ULL << 24));
    return (1ULL << 40) | (static_cast<std::uint64_t>(id_) << 24) |
           next_socket_serial_++;
  }

  /// Checkpoint: scalar counters only. The demux tables, the one-entry
  /// cache, and the port refcounts are rebuilt by sockets/listeners
  /// re-registering during the workload restore phase; this loads *after*
  /// that phase, overwriting the socket-serial counter the re-creation
  /// bumped. The NIC uplink is its own registered Checkpointable.
  void SaveState(CheckpointWriter& w) const override {
    w.U64(next_ephemeral_);
    w.U64(unmatched_);
    w.U64(checksum_drops_);
    w.U64(next_packet_uid_);
    w.U64(next_socket_serial_);
  }
  void LoadState(CheckpointReader& r) override {
    next_ephemeral_ = static_cast<PortNum>(r.U64());
    unmatched_ = r.U64();
    checksum_drops_ = r.U64();
    next_packet_uid_ = r.U64();
    next_socket_serial_ = r.U64();
  }

  /// Forces the next AllocatePort probe position (regression tests for
  /// same-tick port reuse; see tests/workload_test.cc).
  void SetNextEphemeralForTest(PortNum next) { next_ephemeral_ = next; }

 private:
  static constexpr PortNum kEphemeralBase = 10000;

  void MarkPortUsed(PortNum port);
  void MarkPortFree(PortNum port);
  bool PortInUse(PortNum port) const { return port_refs_.Contains(port); }

  Simulator& sim_;
  NodeId id_;
  std::string name_;
  std::unique_ptr<EgressPort> uplink_;
  FlatFlowTable<PacketHandler> connections_;  // keyed by PackFlowKey(...)
  // One-entry demux cache: arrivals come in per-flow runs (a window of
  // segments from one sender drains back-to-back), so the last key repeats
  // and a run costs one flow-table probe instead of one per packet. Holds
  // a *copy* of the handler (InlineHandler is trivially copyable), so table
  // rehashes can't dangle it; Register/Unregister invalidate it.
  std::uint64_t demux_cache_key_ = 0;
  PacketHandler demux_cache_handler_;
  bool demux_cache_valid_ = false;
  FlatFlowTable<PacketHandler> listeners_;  // keyed by local port
  // Registration counts (connections + listeners) keyed by local port,
  // holding live ports only: an entry is erased when its count drops to
  // zero. Multiple connections share one local port on servers, hence
  // counts.
  FlatFlowTable<std::uint32_t> port_refs_;
  PortNum next_ephemeral_ = kEphemeralBase;
  std::uint64_t unmatched_ = 0;
  std::uint64_t checksum_drops_ = 0;
  std::uint64_t next_packet_uid_ = 1;
  std::uint64_t next_socket_serial_ = 0;
};

}  // namespace dctcpp
