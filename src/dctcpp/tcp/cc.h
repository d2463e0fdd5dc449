// Pluggable congestion control, modelled on Linux `tcp_congestion_ops`.
//
// The socket owns loss detection, retransmission, and the cwnd/ssthresh
// variables; the CongestionOps object decides how the window grows, how it
// shrinks on loss and on ECN-echo, and — for DCTCP+ — how long to pace
// between segment transmissions. Implementations: NewReno (tcp/),
// Dctcp (dctcp/), DctcpPlus (core/).
#pragma once

#include <cstdint>
#include <memory>

#include "dctcpp/sim/checkpoint.h"
#include "dctcpp/util/rng.h"
#include "dctcpp/util/time.h"
#include "dctcpp/util/units.h"

namespace dctcpp {

class TcpSocket;

/// Per-ACK context handed to CongestionOps::OnAck.
struct AckContext {
  Bytes newly_acked = 0;  ///< bytes newly cumulatively acknowledged
  bool duplicate = false; ///< a duplicate ACK (no progress, no window data)
  bool ece = false;       ///< ECN-echo flag was set on this ACK
  bool in_recovery = false;  ///< socket is in fast recovery
  Tick rtt_sample = -1;   ///< valid (>= 0) when this ACK timed a segment
};

class CongestionOps {
 public:
  virtual ~CongestionOps() = default;

  virtual const char* Name() const = 0;

  /// Whether data packets are sent ECN-capable (ECT). Non-ECN senders see
  /// only drops at the switch.
  virtual bool EcnCapable() const = 0;

  /// Receiver-side ECE echo policy: DCTCP's per-packet CE state machine
  /// (true) versus the classic RFC 3168 latch-until-CWR (false).
  virtual bool DctcpStyleReceiver() const { return false; }

  /// Initial congestion window, in MSS.
  virtual int InitialCwnd() const { return 3; }

  /// Smallest window the regulation law may select (the paper's lower
  /// bound discussion: 2 MSS normally, 1 MSS for DCTCP+).
  virtual int MinCwnd() const { return 2; }

  /// Called once the connection is established.
  virtual void OnEstablished(TcpSocket& sk) { (void)sk; }

  /// Called for every received ACK after the socket's own bookkeeping.
  /// This is where window growth, DCTCP's alpha accounting, ECE reactions,
  /// and DCTCP+'s state machine live.
  virtual void OnAck(TcpSocket& sk, const AckContext& ctx) = 0;

  /// Multiplicative-decrease target (MSS) on entry to fast recovery.
  virtual int SsthreshAfterLoss(const TcpSocket& sk) const = 0;

  /// Called when the retransmission timer fires (before the socket resets
  /// cwnd to the loss window). DCTCP+ treats this as a congestion signal.
  virtual void OnRetransmissionTimeout(TcpSocket& sk) { (void)sk; }

  /// Called when triple duplicate ACKs trigger fast retransmit (after the
  /// socket applied SsthreshAfterLoss). A `retrans` signal for DCTCP+.
  virtual void OnFastRetransmit(TcpSocket& sk) { (void)sk; }

  /// Extra delay to impose before transmitting the *next* data segment
  /// (DCTCP+ `slow_time`); 0 disables pacing.
  virtual Tick PacingDelay(TcpSocket& sk, Rng& rng) {
    (void)sk;
    (void)rng;
    return 0;
  }

  /// Whether PacingDelay may currently return nonzero (or draw from the
  /// RNG) for this socket. Conservative overrides are fine. A query for
  /// introspection and decorating wrappers; the socket itself never asks.
  virtual bool MayPace(const TcpSocket& sk) const {
    (void)sk;
    return false;
  }

  /// Checkpoint: dynamic congestion state only (configuration is rebuilt
  /// by constructing the same ops). Overrides must chain to their base
  /// class first, mirroring construction order.
  virtual void SaveState(CheckpointWriter& w) const { (void)w; }
  virtual void LoadState(CheckpointReader& r) { (void)r; }
};

}  // namespace dctcpp
