// Packet and header model.
//
// Packets are small value types copied through the network; the payload is
// simulated by byte counts only. The TCP header carries 32-bit sequence
// numbers with real modular semantics (wrap-safe comparison lives in
// dctcpp/tcp/seq.h).
#pragma once

#include <cstdint>
#include <string>

#include "dctcpp/util/time.h"
#include "dctcpp/util/units.h"

namespace dctcpp {

/// Identifies a host or switch in a Network.
using NodeId = std::int32_t;
inline constexpr NodeId kInvalidNode = -1;

/// TCP port number.
using PortNum = std::uint16_t;

/// Maximum segment size (bytes of TCP payload per full segment) and the
/// modelled per-packet wire overhead (Ethernet + IP + TCP headers).
inline constexpr Bytes kMss = 1460;
inline constexpr Bytes kHeaderBytes = 54;

/// ECN codepoint carried in the (modelled) IP header.
enum class Ecn : std::uint8_t {
  kNotEct,  ///< endpoint not ECN-capable: switch drops instead of marking
  kEct,     ///< ECN-capable transport
  kCe,      ///< congestion experienced (set by the switch)
};

/// One SACK block: received range [start, end) in sequence space.
struct SackBlock {
  std::uint32_t start = 0;
  std::uint32_t end = 0;
  bool Valid() const { return start != end; }
};

/// TCP header flags and fields used by the model. The five flag booleans
/// are single-bit fields sharing one byte: call sites read and assign them
/// exactly as before, but the header packs into 40 bytes, which is what
/// lets a whole Packet fit one cache line (static_assert below).
struct TcpHeader {
  PortNum src_port = 0;
  PortNum dst_port = 0;
  std::uint32_t seq = 0;  ///< first payload byte (or SYN/FIN occupying one)
  std::uint32_t ack = 0;  ///< next expected byte (valid when `ack_flag`)
  /// RFC 2018 selective acknowledgment option: up to 3 out-of-order
  /// ranges the receiver holds (all-zero blocks are absent). Only filled
  /// when both ends negotiated SACK.
  SackBlock sack[3];
  bool syn : 1 = false;
  bool fin : 1 = false;
  bool ack_flag : 1 = false;
  bool ece : 1 = false;  ///< ECN-echo (receiver -> sender)
  bool cwr : 1 = false;  ///< congestion window reduced (sender -> receiver)
};
static_assert(sizeof(TcpHeader) == 40, "TcpHeader must stay packed");

/// One simulated packet. Field order and widths are chosen so the whole
/// struct fits a single 64-byte cache line: every copy on the egress path
/// is one cacheline move. `payload` is a 32-bit count (a segment carries
/// at most kMss bytes; byte *totals* use the 64-bit Bytes type, to which
/// it widens implicitly).
struct Packet {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  TcpHeader tcp;
  std::int32_t payload = 0;  ///< TCP payload bytes (<= kMss per segment)
  Ecn ecn = Ecn::kNotEct;
  /// Set by the impairment layer when payload/header bits were flipped in
  /// transit. Switches still forward the packet (the model is an
  /// end-to-end TCP checksum, not a per-hop FCS); the destination host's
  /// checksum verification discards it instead of delivering it upward.
  bool corrupted = false;
  /// Dragonfly Valiant routing tag: the intermediate group this packet
  /// was assigned at its source router, -1 when untagged (minimal routing
  /// or non-dragonfly fabrics). Stamped once from a per-flow hash, so it
  /// is deterministic across shard counts and pools; routers forward
  /// toward the tagged group until the packet reaches it (or its
  /// destination group), then fall back to minimal routing.
  std::int16_t valiant_group = -1;
  std::uint64_t uid = 0;  ///< unique per-simulation id, for tracing

  /// Bytes this packet occupies on the wire and in switch buffers.
  Bytes WireSize() const { return static_cast<Bytes>(payload) + kHeaderBytes; }

  bool IsData() const { return payload > 0; }

  /// Buffer size that always fits a DescribeTo rendering.
  static constexpr std::size_t kDescribeBufSize = 160;

  /// Renders a short human-readable form into `buf` and returns it.
  /// Allocation-free: trace callers keep the buffer on the stack and only
  /// call this under a LogEnabled guard.
  const char* DescribeTo(char* buf, std::size_t size) const;

  /// Short human-readable rendering for trace logs. Convenience wrapper
  /// over DescribeTo that builds a std::string — not for hot paths.
  std::string Describe() const;
};
static_assert(sizeof(Packet) <= 64,
              "Packet must fit one cache line: the burst pipeline and the "
              "one-copy egress path budget exactly one line per packet");

}  // namespace dctcpp
