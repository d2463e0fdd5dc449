#include "dctcpp/net/host.h"

#include "dctcpp/util/assert.h"
#include "dctcpp/util/log.h"
#include "dctcpp/util/profile.h"

namespace dctcpp {

void Host::AttachUplink(const LinkConfig& config, PacketSink& peer,
                        Simulator* peer_sim) {
  DCTCPP_ASSERT(uplink_ == nullptr);
  uplink_ = std::make_unique<EgressPort>(sim_, config, peer, peer_sim);
}

void Host::Send(Packet& pkt) {
  DCTCPP_ASSERT(uplink_ != nullptr);
  DCTCPP_ASSERT(pkt.src == id_);
  pkt.uid = (static_cast<std::uint64_t>(id_) + 1) << 40 | next_packet_uid_++;
  // Birth record in the conservation ledger, before the NIC gets a chance
  // to drop it: every originated packet must retire exactly once.
  sim_.invariants().CountOriginated();
  uplink_->Send(pkt);
}

void Host::MarkPortUsed(PortNum port) {
  if (std::uint32_t* refs = port_refs_.Find(port)) {
    ++*refs;
  } else {
    port_refs_.Insert(port, 1);
  }
}

void Host::MarkPortFree(PortNum port) {
  std::uint32_t* refs = port_refs_.Find(port);
  DCTCPP_ASSERT(refs != nullptr && *refs != 0);
  if (--*refs == 0) port_refs_.Erase(port);
}

void Host::RegisterConnection(PortNum local_port, NodeId remote,
                              PortNum rport, PacketHandler handler) {
  DCTCPP_ASSERT(static_cast<bool>(handler));
  demux_cache_valid_ = false;
  connections_.Insert(PackFlowKey(local_port, remote, rport), handler);
  MarkPortUsed(local_port);
}

void Host::UnregisterConnection(PortNum local_port, NodeId remote,
                                PortNum rport) {
  demux_cache_valid_ = false;
  if (connections_.Erase(PackFlowKey(local_port, remote, rport))) {
    MarkPortFree(local_port);
  }
}

void Host::Listen(PortNum local_port, PacketHandler handler) {
  DCTCPP_ASSERT(static_cast<bool>(handler));
  listeners_.Insert(local_port, handler);
  MarkPortUsed(local_port);
}

void Host::StopListening(PortNum local_port) {
  if (listeners_.Erase(local_port)) MarkPortFree(local_port);
}

PortNum Host::AllocatePort() {
  // Wrap within the ephemeral range, skipping ports that still have a
  // live registration. A full cycle without a free port means >55k
  // concurrent registrations on one host — a genuine configuration bug.
  for (int attempts = 0; attempts < 65535 - kEphemeralBase; ++attempts) {
    const PortNum candidate = next_ephemeral_;
    next_ephemeral_ = candidate + 1 == 65535
                          ? kEphemeralBase
                          : static_cast<PortNum>(candidate + 1);
    if (!PortInUse(candidate)) return candidate;
  }
  Log(LogLevel::kError,
      "host %s: ephemeral port range [%u, 65535) exhausted — all %d ports "
      "have live registrations; connections are leaking or the workload "
      "needs more client hosts",
      name_.c_str(), static_cast<unsigned>(kEphemeralBase),
      65535 - kEphemeralBase);
  DCTCPP_ASSERT(false && "ephemeral port range exhausted");
  return 0;
}

void Host::Deliver(const Packet& pkt) {
  DCTCPP_PROFILE_SCOPE(kDemux);
  DCTCPP_ASSERT(pkt.dst == id_);
  if (pkt.corrupted) {
    // The TCP checksum fails verification: the segment is discarded here,
    // before demux, exactly as a real stack drops a bad-checksum segment
    // without any protocol reaction.
    ++checksum_drops_;
    sim_.invariants().CountChecksumDiscard();
    if (LogEnabled(LogLevel::kTrace)) {
      char buf[Packet::kDescribeBufSize];
      Log(LogLevel::kTrace, "host %s: checksum discard %s", name_.c_str(),
          pkt.DescribeTo(buf, sizeof buf));
    }
    return;
  }
  sim_.invariants().CountDelivered();
  const std::uint64_t key =
      PackFlowKey(pkt.tcp.dst_port, pkt.src, pkt.tcp.src_port);
  if (demux_cache_valid_ && demux_cache_key_ == key) {
    // Same flow as the previous delivery: skip the table probe. The cached
    // copy stays safe to invoke even if the handler unregisters itself.
    const PacketHandler handler = demux_cache_handler_;
    handler(pkt);
    return;
  }
  // Copy the handler before invoking: the callee may (un)register
  // handlers (FinalizeClose, accept). InlineHandler is a small trivially
  // copyable struct, so the copy is a couple of register moves.
  if (const PacketHandler* h = connections_.Find(key)) {
    const PacketHandler handler = *h;
    demux_cache_valid_ = true;
    demux_cache_key_ = key;
    demux_cache_handler_ = handler;
    handler(pkt);
    return;
  }
  if (const PacketHandler* h = listeners_.Find(pkt.tcp.dst_port)) {
    const PacketHandler handler = *h;
    handler(pkt);
    return;
  }
  ++unmatched_;
  if (LogEnabled(LogLevel::kTrace)) {
    char buf[Packet::kDescribeBufSize];
    Log(LogLevel::kTrace, "host %s: unmatched %s", name_.c_str(),
        pkt.DescribeTo(buf, sizeof buf));
  }
}

}  // namespace dctcpp
