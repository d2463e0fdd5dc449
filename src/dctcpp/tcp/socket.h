// TCP endpoint: connection management, reliable delivery, loss recovery.
//
// The socket implements the mechanisms every protocol variant shares —
// handshake, cumulative ACKs with delayed-ACK policy, RTT estimation and
// the RFC 6298 retransmission timer, duplicate-ACK detection with NewReno
// fast retransmit/recovery, ECN negotiation and receiver-side ECE echo
// (classic latch or DCTCP state machine), and the FLoss-TO / LAck-TO
// timeout classification the paper's Table I reports. Policy — window
// growth/decrease and DCTCP+ pacing — is delegated to a CongestionOps.
//
// Payloads are modelled as byte counts; application data is a linear
// stream of which only coverage is tracked.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "dctcpp/net/host.h"
#include "dctcpp/net/packet.h"
#include "dctcpp/sim/timer.h"
#include "dctcpp/tcp/cc.h"
#include "dctcpp/tcp/probe.h"
#include "dctcpp/tcp/receive_buffer.h"
#include "dctcpp/tcp/rto.h"
#include "dctcpp/tcp/seq.h"
#include "dctcpp/util/arena.h"
#include "dctcpp/util/inline_function.h"
#include "dctcpp/util/interval_set.h"

namespace dctcpp {

class TcpSocket {
 public:
  struct Config {
    RtoEstimator::Config rto;
    /// Initial congestion window in MSS; 0 defers to the CongestionOps.
    int initial_cwnd = 0;
    /// Receive window in MSS. Large by default: the paper's experiments
    /// are never receive-window limited (W in [min, rwnd]).
    int rwnd_mss = 65000;
    /// Delayed-ACK policy: ACK every Nth in-order segment, or when the
    /// timer expires. The timeout is far below Linux's 40 ms default:
    /// datacenter DCTCP deployments tune the delayed-ACK timer to the
    /// RTT scale, and with a 40 ms timer a 1-MSS-window flow (DCTCP+'s
    /// floor) would be clocked by the timer instead of the network.
    int delayed_ack_segments = 2;
    Tick delayed_ack_timeout = 200 * kMicrosecond;
    Bytes mss = kMss;
    /// RFC 2018 selective acknowledgments (negotiated on the handshake;
    /// effective only when both ends enable it). Off by default: the
    /// paper's testbed protocols are evaluated without SACK, but the
    /// `sack_ablation` bench shows what SACK does (and does not) fix.
    bool sack = false;
  };

  enum class State : std::uint8_t {
    kClosed,
    kSynSent,
    kSynRcvd,
    kEstablished,
    kFinWait,    ///< our FIN sent, awaiting its ACK
    kCloseWait,  ///< peer FIN received, app not yet closed
    kLastAck,    ///< peer closed, our FIN sent, awaiting its ACK
  };

  // Per-delivery callbacks are InlineHandler delegates: 32 bytes each,
  // at most 24 bytes of trivially copyable capture (a [this], [this, conn]
  // or [this, host, idx]), never boxed, and invoked with one indirect call.
  // Sockets are per-flow memory, so a caller with a larger or owning
  // callback keeps it in its own object and hands the socket a [this]
  // that forwards to it (see AggregatorClient and BulkSender).
  using DataCallback = InlineHandler<void(Bytes)>;
  using Callback = InlineHandler<void()>;

  /// Owning handle for sockets allocated from the simulation's arena
  /// (accepted sockets live there; see util/arena.h for lifetime rules).
  using Ptr = ArenaPtr<TcpSocket>;

  /// Creates a closed socket bound to `host`. `cc` must be non-null.
  TcpSocket(Host& host, std::unique_ptr<CongestionOps> cc,
            const Config& config);
  ~TcpSocket();

  /// Arena-allocates a socket from `host`'s simulation arena — the normal
  /// way to create client sockets (lifetime: the whole simulation).
  static Ptr Create(Host& host, std::unique_ptr<CongestionOps> cc,
                    const Config& config) {
    return MakeArena<TcpSocket>(host.sim().arena(), host, std::move(cc),
                                config);
  }

  TcpSocket(const TcpSocket&) = delete;
  TcpSocket& operator=(const TcpSocket&) = delete;

  // --- application interface -------------------------------------------

  /// Active open toward (remote, remote_port); allocates a local port.
  void Connect(NodeId remote, PortNum remote_port);

  /// Queues `n` more bytes of application data for transmission.
  void Send(Bytes n);

  /// Closes the sending direction: a FIN follows all queued data.
  void Close();

  void set_on_connected(Callback cb) { on_connected_ = cb; }
  /// In-order payload delivery, called with the newly delivered byte count.
  void set_on_data(DataCallback cb) { on_data_ = cb; }
  /// Peer sent FIN (all of its data has been delivered).
  void set_on_remote_close(Callback cb) { on_remote_close_ = cb; }
  /// Send-side progress: called with the newly acknowledged byte count.
  void set_on_acked(DataCallback cb) { on_acked_ = cb; }
  /// Socket reached kClosed (both directions done); fires at the end of
  /// FinalizeClose. Used by churn workloads to recycle pooled sockets.
  void set_on_closed(Callback cb) { on_closed_ = cb; }

  /// Attaches a trace probe (not owned); nullptr detaches.
  void set_probe(TcpProbe* probe) { probe_ = probe; }

  // --- introspection (CongestionOps, probes, tests) ---------------------

  State state() const { return state_; }
  bool Established() const { return state_ == State::kEstablished; }
  int cwnd() const { return cwnd_; }
  int ssthresh() const { return ssthresh_; }
  bool InSlowStart() const { return cwnd_ < ssthresh_; }
  bool InRecovery() const { return in_recovery_; }
  int MinCwnd() const { return cc_->MinCwnd(); }
  Bytes mss() const { return config_.mss; }
  bool EcnNegotiated() const { return ecn_ok_; }
  bool SackNegotiated() const { return sack_ok_; }
  Tick srtt() const { return rto_.srtt(); }
  const RtoEstimator& rto_estimator() const { return rto_; }
  Simulator& sim() const { return host_.sim(); }
  Host& host() { return host_; }
  /// This socket's private random stream (ISS, pacing jitter, slow-time
  /// evolution), derived from (run seed, host id, per-host socket serial).
  /// Private streams keep draw order decoupled across flows — adding or
  /// removing one flow's randomness cannot shift another's — which is
  /// what lets sharded runs stay bit-identical at any shard count.
  Rng& rng() { return rng_; }
  NodeId remote() const { return remote_; }
  PortNum local_port() const { return local_port_; }
  PortNum remote_port() const { return remote_port_; }
  CongestionOps& cc() { return *cc_; }

  /// Unacknowledged bytes in flight.
  Bytes FlightSize() const { return stream_next_ - stream_acked_; }
  /// App bytes acknowledged end-to-end.
  Bytes StreamAcked() const { return stream_acked_; }
  /// App bytes queued (sent or not) since the socket opened.
  Bytes StreamQueued() const { return app_bytes_queued_; }
  /// App bytes received in order.
  Bytes StreamReceived() const { return rx_.DeliveredBytes(); }

  // CongestionOps mutators.
  void set_cwnd(int cwnd_mss);
  void set_ssthresh(int ssthresh_mss);

  /// Requests CWR to be carried on the next outgoing data segment (set by
  /// CongestionOps after an ECE-driven window reduction).
  void SetCwrPending() { cwr_pending_ = true; }

  // Lifetime stats.
  struct Stats {
    std::uint64_t segments_sent = 0;
    std::uint64_t segments_retransmitted = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t fast_retransmits = 0;
    std::uint64_t acks_received = 0;
    std::uint64_t ece_acks_received = 0;
    std::uint64_t acks_sent = 0;
  };
  const Stats& stats() const { return stats_; }

  // --- checkpoint --------------------------------------------------------
  // Serializes every simulation-visible field (handshake, stream offsets,
  // congestion state, SACK scoreboards, timers with their exact wheel
  // armings, the private RNG, and the polymorphic CongestionOps state).
  // Callbacks, the probe, and the arena placement are NOT serialized; the
  // restoring workload recreates the socket (same host, same cc type, same
  // config) and re-attaches its callbacks, then LoadState overwrites the
  // fresh state and — when the saved socket was registered — re-registers
  // the connection with the host so demux tables and port refcounts are
  // rebuilt. Only valid at a RunUntil barrier.
  void SaveState(CheckpointWriter& w) const;
  void LoadState(CheckpointReader& r);

 private:
  friend class TcpListener;
  friend class ChurnListener;

  // Passive open: adopt an incoming SYN (called by TcpListener).
  void AcceptFrom(const Packet& syn);

  // --- ingress ----------------------------------------------------------
  void OnPacket(const Packet& pkt);
  void HandleHandshake(const Packet& pkt);
  void ProcessAck(const Packet& pkt);
  void ProcessPayload(const Packet& pkt);
  void SendAckNow(bool ece);
  bool ReceiverEce() const;

  // --- egress -----------------------------------------------------------
  void TrySend();
  bool SendDataSegment(std::int64_t offset, Bytes len, bool retransmit);
  void SendControl(bool syn, bool fin, bool ack);
  Packet MakePacket() const;

  // --- SACK scoreboard (sender side, linear stream offsets) -------------
  void ProcessSackBlocks(const Packet& pkt);
  void SackMarkRange(std::int64_t start, std::int64_t end);
  bool IsSacked(std::int64_t offset) const;
  /// First unSACKed offset at or after `from` and below the scoreboard's
  /// high mark; -1 when none (no known hole).
  std::int64_t NextHole(std::int64_t from) const;
  /// Retransmits the lowest known hole (SACK recovery step); returns
  /// whether anything was sent.
  bool RetransmitNextHole();

  // --- loss recovery ----------------------------------------------------
  void EnterFastRetransmit();
  void OnRetransmissionTimeout();
  void ArmRtoTimer();
  void MaybeCancelRtoTimer();
  void InvalidateRttSample() { rtt_pending_ = false; }

  void EstablishCommon();
  void FinalizeClose();

  // --- invariant checking (util/invariants.h) ---------------------------
  /// Timer-callback guard: a timer must never fire for a dead (closed)
  /// flow — FinalizeClose cancels all three. Returns whether the callback
  /// may proceed; a firing on a closed socket is recorded as a violation.
  bool TimerAlive(const char* which);
  /// Sequence-space conservation (stream_acked_ <= stream_next_ <=
  /// stream_max_sent_ <= queued), SACK scoreboard bounds, and receive
  /// scoreboard structure. Called after every ingress packet.
  void CheckInvariants();

  SeqNum SeqOfStream(std::int64_t offset) const {
    return iss_ + 1 + offset;
  }

  /// Never called; its body static-asserts the hot-section layout below
  /// (offsetof needs the complete type, so the checks live in socket.cc).
  static void StaticAssertHotLayout();

  // --- hot section ------------------------------------------------------
  // Everything the per-ACK chain (ProcessAck -> cc OnAck -> TrySend
  // bookkeeping) dereferences on every ACK is packed here, in the object's
  // leading cache lines; StaticAssertHotLayout pins the boundary. The cold
  // tail below holds handshake, receive-side, SACK, callback, and timer
  // state touched at most once per data segment or per connection event.

  Host& host_;
  std::unique_ptr<CongestionOps> cc_;
  TcpProbe* probe_ = nullptr;

  State state_ = State::kClosed;
  bool registered_ = false;
  bool syn_acked_ = false;
  bool fin_pending_ = false;   ///< app closed; FIN after queued data
  bool fin_sent_ = false;
  bool fin_acked_ = false;
  bool in_recovery_ = false;
  bool sack_ok_ = false;       ///< RFC 2018 negotiated (see scoreboard below)
  bool ecn_ok_ = false;
  bool cwr_pending_ = false;
  bool rtt_pending_ = false;
  bool irs_valid_ = false;
  bool peer_fin_received_ = false;
  bool rx_ce_state_ = false;    ///< DCTCP receiver CE state machine
  bool rx_ece_latched_ = false; ///< classic ECN receiver latch
  bool pace_armed_ = false;  ///< a reserved pacing slot awaits its send

  NodeId remote_ = kInvalidNode;
  PortNum local_port_ = 0;
  PortNum remote_port_ = 0;

  // Sequence bookkeeping. The stream_* members are linear (unwrapped)
  // offsets into the application byte stream; SeqOfStream maps them to
  // wire sequence numbers.
  std::int64_t stream_acked_ = 0;   ///< first unacked app byte
  std::int64_t stream_next_ = 0;    ///< next app byte to transmit
  std::int64_t stream_max_sent_ = 0;  ///< high-water mark (snd_max)
  std::int64_t app_bytes_queued_ = 0;

  // Congestion state (MSS units), policy applied by cc_.
  int cwnd_ = 2;
  int ssthresh_ = 0x7fffffff;
  int dupacks_ = 0;
  std::int64_t recover_ = 0;  ///< NewReno recovery point (stream offset)

  // RTT / RTO.
  std::int64_t rtt_offset_end_ = 0;
  Tick rtt_sent_at_ = 0;
  RtoEstimator rto_;
  // Feedback-since-timer-arm, for the FLoss/LAck classification.
  std::uint64_t dupacks_since_arm_ = 0;
  std::uint64_t progress_since_arm_ = 0;

  Config config_;  ///< mss / rwnd_mss are read by every TrySend
  Stats stats_;

  // --- cold section -----------------------------------------------------

  SeqNum iss_{};           ///< initial send sequence (the SYN)
  Rng rng_;

  Callback on_connected_;
  DataCallback on_data_;
  Callback on_remote_close_;
  DataCallback on_acked_;
  Callback on_closed_;

  // SACK sender scoreboard of selectively acknowledged ranges (disjoint,
  // in linear stream offsets; flat sorted interval vector — no per-range
  // allocation).
  IntervalSet sacked_;
  std::int64_t sack_high_ = 0;      ///< highest SACKed offset seen
  std::int64_t sack_rtx_next_ = 0;  ///< holes below this already resent

  Timer rto_timer_;

  // Receive side.
  ReceiveBuffer rx_;
  int unacked_segments_ = 0;
  Timer delack_timer_;

  // Pacing (DCTCP+).
  Tick pace_until_ = 0;
  Timer pace_timer_;
};

/// Passive endpoint: accepts connections on a port, creating one TcpSocket
/// per SYN with a fresh CongestionOps from the factory.
class TcpListener {
 public:
  using CcFactory = std::function<std::unique_ptr<CongestionOps>()>;
  /// Receives ownership of the accepted socket immediately on SYN arrival,
  /// before the handshake completes, so callbacks can be attached in time.
  /// Accepted sockets are allocated from the host's simulation arena.
  using AcceptCallback = std::function<void(TcpSocket::Ptr)>;

  TcpListener(Host& host, PortNum port, CcFactory cc_factory,
              TcpSocket::Config config, AcceptCallback on_accept);
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  PortNum port() const { return port_; }

 private:
  void OnPacket(const Packet& pkt);

  Host& host_;
  PortNum port_;
  CcFactory cc_factory_;
  TcpSocket::Config config_;
  AcceptCallback on_accept_;
};

}  // namespace dctcpp
