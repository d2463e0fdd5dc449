#include "dctcpp/tcp/socket.h"

#include <algorithm>
#include <cstddef>

#include "dctcpp/util/assert.h"
#include "dctcpp/util/flight_recorder.h"
#include "dctcpp/util/log.h"
#include "dctcpp/util/profile.h"

namespace dctcpp {

// Hot/cold layout contract: the state the per-ACK chain touches on every
// ACK must sit in the object's first four cache lines. offsetof on a
// non-standard-layout class is conditionally supported; GCC and Clang both
// compute it correctly for this single-inheritance-free class.
#if defined(__GNUC__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winvalid-offsetof"
#endif
void TcpSocket::StaticAssertHotLayout() {
  static_assert(offsetof(TcpSocket, progress_since_arm_) +
                        sizeof(std::uint64_t) <=
                    4 * 64,
                "per-ACK core state must fit the first four cache lines");
  static_assert(offsetof(TcpSocket, stream_acked_) < 2 * 64,
                "stream offsets belong in the leading cache lines");
  static_assert(offsetof(TcpSocket, iss_) >
                    offsetof(TcpSocket, stats_),
                "cold section must follow the hot section");
  static_assert(sizeof(TcpSocket) <= 848,
                "a socket is per-flow memory: keep it within 848 bytes");
}
#if defined(__GNUC__)
#pragma GCC diagnostic pop
#endif

TcpSocket::TcpSocket(Host& host, std::unique_ptr<CongestionOps> cc,
                     const Config& config)
    : host_(host),
      cc_(std::move(cc)),
      rto_(config.rto),
      config_(config),
      rng_(host.sim().StreamRng(host.NextSocketStreamId())),
      rto_timer_(host.sim(),
                 [this] {
                   if (TimerAlive("rto")) OnRetransmissionTimeout();
                 }),
      delack_timer_(host.sim(),
                    [this] {
                      if (TimerAlive("delack")) SendAckNow(ReceiverEce());
                    }),
      pace_timer_(host.sim(), [this] {
        if (TimerAlive("pace")) TrySend();
      }) {
  DCTCPP_ASSERT(cc_ != nullptr);
  DCTCPP_ASSERT(config_.mss > 0);
  // The delayed-ACK timer is armed on every odd data segment and cancelled
  // by every ACK actually sent — per-packet churn that lazy cancellation
  // turns into one wheel op per expiry window (see Timer::SetLazyCancel).
  delack_timer_.SetLazyCancel(true);
  cwnd_ = config_.initial_cwnd > 0 ? config_.initial_cwnd
                                   : cc_->InitialCwnd();
}

TcpSocket::~TcpSocket() {
  if (registered_) {
    host_.UnregisterConnection(local_port_, remote_, remote_port_);
  }
}

// ---------------------------------------------------------------------------
// Connection establishment

void TcpSocket::Connect(NodeId remote, PortNum remote_port) {
  DCTCPP_ASSERT(state_ == State::kClosed);
  remote_ = remote;
  remote_port_ = remote_port;
  local_port_ = host_.AllocatePort();
  host_.RegisterConnection(local_port_, remote_, remote_port_,
                           [this](const Packet& p) { OnPacket(p); });
  registered_ = true;
  iss_ = SeqNum(static_cast<std::uint32_t>(rng_.Next()));
  state_ = State::kSynSent;
  SendControl(/*syn=*/true, /*fin=*/false, /*ack=*/false);
  ArmRtoTimer();
}

void TcpSocket::AcceptFrom(const Packet& syn) {
  DCTCPP_ASSERT(state_ == State::kClosed);
  DCTCPP_ASSERT(syn.tcp.syn && !syn.tcp.ack_flag);
  remote_ = syn.src;
  remote_port_ = syn.tcp.src_port;
  local_port_ = syn.tcp.dst_port;
  host_.RegisterConnection(local_port_, remote_, remote_port_,
                           [this](const Packet& p) { OnPacket(p); });
  registered_ = true;
  iss_ = SeqNum(static_cast<std::uint32_t>(rng_.Next()));
  rx_ = ReceiveBuffer(SeqNum(syn.tcp.seq) + 1);
  irs_valid_ = true;
  // RFC 3168 negotiation: SYN carries ECE+CWR; agree if we are capable too.
  ecn_ok_ = cc_->EcnCapable() && syn.tcp.ece && syn.tcp.cwr;
  // SACK-permitted piggybacks on a SYN sack block (model of RFC 2018's
  // SYN option): block[0] = {1,1} marks the capability.
  sack_ok_ = config_.sack && syn.tcp.sack[0].start == 1 &&
             syn.tcp.sack[0].end == 1;
  state_ = State::kSynRcvd;
  SendControl(/*syn=*/true, /*fin=*/false, /*ack=*/true);
  ArmRtoTimer();
}

void TcpSocket::EstablishCommon() {
  state_ = State::kEstablished;
  syn_acked_ = true;
  rto_.ResetBackoff();
  MaybeCancelRtoTimer();
  cc_->OnEstablished(*this);
  if (on_connected_) on_connected_();
}

// ---------------------------------------------------------------------------
// Application interface

void TcpSocket::Send(Bytes n) {
  DCTCPP_ASSERT(n > 0);
  DCTCPP_ASSERT(!fin_pending_);
  app_bytes_queued_ += n;
  if (Established() || state_ == State::kCloseWait) TrySend();
}

void TcpSocket::Close() {
  if (fin_pending_ || state_ == State::kClosed) return;
  fin_pending_ = true;
  TrySend();
}

void TcpSocket::set_cwnd(int cwnd_mss) {
  cwnd_ = std::max(cwnd_mss, 1);
}

void TcpSocket::set_ssthresh(int ssthresh_mss) {
  ssthresh_ = std::max(ssthresh_mss, 1);
}

// ---------------------------------------------------------------------------
// Ingress

void TcpSocket::OnPacket(const Packet& pkt) {
  DCTCPP_PROFILE_SCOPE(kSocketAck);
  switch (state_) {
    case State::kClosed:
      return;  // stray packet after close
    case State::kSynSent:
      if (pkt.tcp.syn && pkt.tcp.ack_flag &&
          SeqNum(pkt.tcp.ack) == iss_ + 1) {
        rx_ = ReceiveBuffer(SeqNum(pkt.tcp.seq) + 1);
        irs_valid_ = true;
        ecn_ok_ = cc_->EcnCapable() && pkt.tcp.ece;
        sack_ok_ = config_.sack && pkt.tcp.sack[0].start == 1 &&
                   pkt.tcp.sack[0].end == 1;
        EstablishCommon();
        SendAckNow(false);  // complete the handshake
        TrySend();
      }
      return;
    case State::kSynRcvd:
      if (pkt.tcp.syn && !pkt.tcp.ack_flag) {
        // Client retransmitted its SYN: our SYN-ACK was lost.
        SendControl(/*syn=*/true, /*fin=*/false, /*ack=*/true);
        return;
      }
      if (pkt.tcp.ack_flag && SeqNum(pkt.tcp.ack) == iss_ + 1) {
        EstablishCommon();
        // The handshake-completing segment may already carry data.
        if (pkt.payload > 0 || pkt.tcp.fin) ProcessPayload(pkt);
        TrySend();
      }
      return;
    default:
      break;
  }

  if (pkt.tcp.syn) {
    // Retransmitted SYN-ACK: our handshake ACK was lost; repeat it.
    SendAckNow(ReceiverEce());
    return;
  }

  if (pkt.tcp.ack_flag) ProcessAck(pkt);
  if (state_ == State::kClosed) return;  // ACK processing may finalize
  if (pkt.payload > 0 || pkt.tcp.fin) ProcessPayload(pkt);
  CheckInvariants();
}

// ---------------------------------------------------------------------------
// Invariant checking

bool TcpSocket::TimerAlive(const char* which) {
  if (state_ != State::kClosed) return true;
  sim().invariants().Violate(
      "timer-dead-flow", "%s timer fired on closed socket %u -> %d:%u",
      which, static_cast<unsigned>(local_port_), static_cast<int>(remote_),
      static_cast<unsigned>(remote_port_));
  return false;
}

void TcpSocket::CheckInvariants() {
  NetworkInvariants& inv = sim().invariants();
  const bool seq_ok = 0 <= stream_acked_ && stream_acked_ <= stream_next_ &&
                      stream_next_ <= stream_max_sent_ &&
                      stream_max_sent_ <= app_bytes_queued_;
  if (!seq_ok) {
    inv.Violate("tcp-seq",
                "sender offsets inconsistent: acked=%lld next=%lld "
                "max_sent=%lld queued=%lld",
                static_cast<long long>(stream_acked_),
                static_cast<long long>(stream_next_),
                static_cast<long long>(stream_max_sent_),
                static_cast<long long>(app_bytes_queued_));
  }
  if (sack_ok_) {
    if (sack_high_ > stream_max_sent_) {
      inv.Violate("tcp-sack",
                  "scoreboard high mark %lld beyond snd_max %lld",
                  static_cast<long long>(sack_high_),
                  static_cast<long long>(stream_max_sent_));
    }
    if (!sacked_.empty() && sacked_.front().start < stream_acked_) {
      inv.Violate("tcp-sack",
                  "scoreboard range starting at %lld below cumulative "
                  "edge %lld",
                  static_cast<long long>(sacked_.front().start),
                  static_cast<long long>(stream_acked_));
    }
  }
  if (irs_valid_) rx_.CheckConsistent(inv);
}

void TcpSocket::ProcessAck(const Packet& pkt) {
  ++stats_.acks_received;
  if (FlightRecorder* fr = sim().flight_recorder()) {
    fr->Record(FrEvent::kAck, sim().shard_id(), sim().Now(),
               FrSocketPayload(static_cast<std::uint32_t>(host_.id()),
                               local_port_, pkt.tcp.ack));
  }
  const bool ece = pkt.tcp.ece;
  if (ece) ++stats_.ece_acks_received;
  if (sack_ok_) ProcessSackBlocks(pkt);

  // Unwrap the ACK into a linear stream offset. One extra unit may cover
  // our FIN. Validity is against the high-water mark: after an RTO rewound
  // stream_next_, ACKs of pre-timeout transmissions are still legitimate.
  const std::int64_t fin_units = fin_sent_ ? 1 : 0;
  const std::int64_t linear_ack =
      stream_acked_ + SeqNum(pkt.tcp.ack).DistanceFrom(SeqOfStream(stream_acked_));
  if (linear_ack > stream_max_sent_ + fin_units) return;  // acks unsent data

  Bytes newly = 0;
  bool duplicate = false;
  Tick rtt_sample = -1;

  if (linear_ack > stream_acked_) {
    newly = std::min(linear_ack, app_bytes_queued_) - stream_acked_;
    stream_acked_ += newly;
    // snd_nxt never trails snd_una (relevant after an RTO rewind).
    stream_next_ = std::max(stream_next_, stream_acked_);
    // Trim the SACK scoreboard below the new cumulative edge.
    sacked_.TrimBelow(stream_acked_);
    sack_rtx_next_ = std::max(sack_rtx_next_, stream_acked_);
    if (fin_sent_ && linear_ack == app_bytes_queued_ + 1) fin_acked_ = true;
    ++progress_since_arm_;
    if (rtt_pending_ && stream_acked_ >= rtt_offset_end_) {
      rtt_sample = sim().Now() - rtt_sent_at_;
      rto_.AddSample(rtt_sample);
      rtt_pending_ = false;
    }
    rto_.ResetBackoff();

    if (in_recovery_) {
      if (stream_acked_ >= recover_) {
        // NewReno full ACK: recovery complete.
        in_recovery_ = false;
        dupacks_ = 0;
        cwnd_ = std::max(ssthresh_, cc_->MinCwnd());
      } else {
        // Partial ACK: the next segment was lost too; retransmit it and
        // deflate the window by the amount acknowledged.
        const int acked_mss =
            static_cast<int>((newly + config_.mss - 1) / config_.mss);
        cwnd_ = std::max(cwnd_ - acked_mss + 1, cc_->MinCwnd());
        if (sack_ok_) {
          // SACK recovery: resend the lowest not-yet-resent hole instead
          // of blindly resending snd_una's segment.
          sack_rtx_next_ = std::max(sack_rtx_next_, stream_acked_);
          if (!RetransmitNextHole() && FlightSize() > 0) {
            SendDataSegment(stream_acked_,
                            std::min<Bytes>(config_.mss, FlightSize()),
                            /*retransmit=*/true);
          }
        } else if (FlightSize() > 0) {
          SendDataSegment(stream_acked_,
                          std::min<Bytes>(config_.mss, FlightSize()),
                          /*retransmit=*/true);
        }
      }
    } else {
      dupacks_ = 0;
    }

    if (FlightSize() == 0 && (!fin_sent_ || fin_acked_)) {
      MaybeCancelRtoTimer();
    } else {
      ArmRtoTimer();  // rearm on forward progress (RFC 6298 5.3)
    }
  } else if (linear_ack == stream_acked_ && FlightSize() > 0 &&
             pkt.payload == 0 && !pkt.tcp.syn && !pkt.tcp.fin) {
    duplicate = true;
    ++dupacks_;
    ++dupacks_since_arm_;
    if (!in_recovery_ && dupacks_ == 3) {
      EnterFastRetransmit();
    } else if (in_recovery_) {
      ++cwnd_;  // window inflation while the hole persists
      // With SACK, each further duplicate can repair one more known hole
      // (bounded RFC 6675-style recovery) instead of waiting for partial
      // ACKs to reveal them one RTT apart.
      if (sack_ok_) RetransmitNextHole();
    }
  }

  // Delegate policy (window growth, DCTCP alpha, ECE reaction, DCTCP+
  // state machine) when this ACK concerns our data transfer.
  if (newly > 0 || duplicate || FlightSize() > 0) {
    const AckContext ctx{newly, duplicate, ece && ecn_ok_, in_recovery_,
                         rtt_sample};
    {
      DCTCPP_PROFILE_SCOPE(kCwndUpdate);
      cc_->OnAck(*this, ctx);
    }
    if (probe_ != nullptr) {
      const bool at_min = (ece && ecn_ok_) && cwnd_ <= cc_->MinCwnd();
      probe_->OnAckProcessed(*this, cwnd_, ece && ecn_ok_, at_min);
    }
  }

  if (newly > 0 && on_acked_) on_acked_(newly);

  // Close-side progress.
  if (fin_acked_) {
    if (state_ == State::kLastAck) {
      FinalizeClose();
      return;
    }
    if (state_ == State::kFinWait && peer_fin_received_) {
      FinalizeClose();
      return;
    }
  }

  TrySend();
}

// ---------------------------------------------------------------------------
// SACK scoreboard

void TcpSocket::ProcessSackBlocks(const Packet& pkt) {
  for (const SackBlock& block : pkt.tcp.sack) {
    if (!block.Valid()) continue;
    // Unwrap to linear offsets; clamp to the sent range.
    const std::int64_t start =
        stream_acked_ +
        SeqNum(block.start).DistanceFrom(SeqOfStream(stream_acked_));
    const std::int64_t end =
        stream_acked_ +
        SeqNum(block.end).DistanceFrom(SeqOfStream(stream_acked_));
    if (end <= start) continue;
    SackMarkRange(std::max(start, stream_acked_),
                  std::min(end, stream_max_sent_));
  }
}

void TcpSocket::SackMarkRange(std::int64_t start, std::int64_t end) {
  if (end <= start) return;
  sack_high_ = std::max(sack_high_, end);
  sacked_.Add(start, end);
}

bool TcpSocket::IsSacked(std::int64_t offset) const {
  return sacked_.Contains(offset);
}

std::int64_t TcpSocket::NextHole(std::int64_t from) const {
  std::int64_t candidate = std::max(from, stream_acked_);
  while (candidate < sack_high_) {
    const std::int64_t covered_to = sacked_.CoveringEnd(candidate);
    if (covered_to < 0) return candidate;  // in a gap
    candidate = covered_to;  // inside a SACKed range: skip past it
  }
  return -1;
}

bool TcpSocket::RetransmitNextHole() {
  const std::int64_t hole = NextHole(sack_rtx_next_);
  if (hole < 0 || hole >= app_bytes_queued_) return false;
  // Length bounded by the MSS, the end of the hole, and the stream.
  Bytes len = std::min<Bytes>(config_.mss, app_bytes_queued_ - hole);
  const std::int64_t next_start = sacked_.NextStartAfter(hole);
  if (next_start >= 0) len = std::min<Bytes>(len, next_start - hole);
  SendDataSegment(hole, len, /*retransmit=*/true);
  sack_rtx_next_ = hole + len;
  return true;
}

bool TcpSocket::ReceiverEce() const {
  return cc_->DctcpStyleReceiver() ? rx_ce_state_
                                   : (rx_ece_latched_ && ecn_ok_);
}

void TcpSocket::ProcessPayload(const Packet& pkt) {
  DCTCPP_ASSERT(irs_valid_);

  if (pkt.payload > 0) {
    // Receiver-side ECN bookkeeping precedes ACK generation.
    const bool ce = pkt.ecn == Ecn::kCe;
    if (cc_->DctcpStyleReceiver()) {
      // DCTCP's delayed-ACK-aware echo: on every CE state change, first
      // acknowledge the packets seen so far with the *old* state, then
      // flip. Steady CE runs are echoed by the normal delayed ACKs.
      if (ce != rx_ce_state_) {
        SendAckNow(rx_ce_state_);
        rx_ce_state_ = ce;
      }
    } else if (ecn_ok_) {
      if (ce) rx_ece_latched_ = true;
      if (pkt.tcp.cwr) rx_ece_latched_ = false;
    }

    const Bytes advanced = rx_.OnSegment(SeqNum(pkt.tcp.seq), pkt.payload);
    if (advanced > 0 && on_data_) on_data_(advanced);

    if (advanced == 0 || rx_.HasGaps()) {
      // Duplicate or out-of-order: immediate (duplicate) ACK so the sender
      // can detect the hole.
      SendAckNow(ReceiverEce());
    } else {
      if (++unacked_segments_ >= config_.delayed_ack_segments) {
        SendAckNow(ReceiverEce());
      } else if (!delack_timer_.IsPending()) {
        delack_timer_.Schedule(config_.delayed_ack_timeout);
      }
    }
  }

  if (pkt.tcp.fin && !peer_fin_received_) {
    // Accept the FIN only once all of the peer's data is in.
    const SeqNum fin_seq = SeqNum(pkt.tcp.seq) + pkt.payload;
    if (fin_seq == rx_.rcv_nxt()) {
      peer_fin_received_ = true;
      if (state_ == State::kEstablished) state_ = State::kCloseWait;
      SendAckNow(ReceiverEce());
      if (on_remote_close_) on_remote_close_();
      if (state_ == State::kFinWait && fin_acked_) FinalizeClose();
    } else {
      SendAckNow(ReceiverEce());  // out-of-order FIN: dup ACK
    }
  }
}

void TcpSocket::SendAckNow(bool ece) {
  unacked_segments_ = 0;
  delack_timer_.Cancel();
  Packet pkt = MakePacket();
  pkt.tcp.seq = SeqOfStream(stream_next_).raw();
  pkt.tcp.ack_flag = true;
  pkt.tcp.ack = (rx_.rcv_nxt() + (peer_fin_received_ ? 1 : 0)).raw();
  pkt.tcp.ece = ece;
  pkt.payload = 0;
  pkt.ecn = Ecn::kNotEct;
  if (sack_ok_ && rx_.HasGaps()) {
    const auto ranges = rx_.SackRanges(3);
    for (std::size_t i = 0; i < ranges.size(); ++i) {
      pkt.tcp.sack[i] = SackBlock{ranges[i].start.raw(),
                                  ranges[i].end.raw()};
    }
  }
  ++stats_.acks_sent;
  host_.Send(pkt);
}

// ---------------------------------------------------------------------------
// Egress

Packet TcpSocket::MakePacket() const {
  Packet pkt;
  pkt.src = host_.id();
  pkt.dst = remote_;
  pkt.tcp.src_port = local_port_;
  pkt.tcp.dst_port = remote_port_;
  return pkt;
}

void TcpSocket::SendControl(bool syn, bool fin, bool ack) {
  Packet pkt = MakePacket();
  pkt.tcp.syn = syn;
  pkt.tcp.fin = fin;
  pkt.tcp.ack_flag = ack;
  if (syn) {
    pkt.tcp.seq = iss_.raw();
    if (cc_->EcnCapable()) {
      // RFC 3168: SYN carries ECE+CWR, SYN-ACK echoes ECE only.
      pkt.tcp.ece = true;
      pkt.tcp.cwr = !ack;
    }
    if (config_.sack) {
      // SACK-permitted marker (see AcceptFrom).
      pkt.tcp.sack[0] = SackBlock{1, 1};
    }
  } else if (fin) {
    pkt.tcp.seq = SeqOfStream(app_bytes_queued_).raw();
  }
  if (ack) {
    pkt.tcp.ack = (rx_.rcv_nxt() + (peer_fin_received_ ? 1 : 0)).raw();
  }
  pkt.payload = 0;
  pkt.ecn = Ecn::kNotEct;
  host_.Send(pkt);
}

void TcpSocket::TrySend() {
  if (state_ != State::kEstablished && state_ != State::kCloseWait &&
      state_ != State::kFinWait && state_ != State::kLastAck) {
    return;
  }

  const Bytes wnd_bytes =
      static_cast<Bytes>(std::min(cwnd_, config_.rwnd_mss)) * config_.mss;

  while (stream_next_ < app_bytes_queued_) {
    if (sack_ok_ && stream_next_ < stream_max_sent_) {
      // Go-back retransmission region: never resend selectively
      // acknowledged data.
      const std::int64_t covered_to = sacked_.CoveringEnd(stream_next_);
      if (covered_to > stream_next_) {
        stream_next_ = covered_to;
        continue;
      }
    }
    Bytes len =
        std::min<Bytes>(config_.mss, app_bytes_queued_ - stream_next_);
    if (sack_ok_) {
      const std::int64_t next_start = sacked_.NextStartAfter(stream_next_);
      if (next_start >= 0) {
        len = std::min<Bytes>(len, next_start - stream_next_);
      }
    }
    if (len <= 0) break;  // defensive; cannot happen with a sane scoreboard
    if (FlightSize() + len > wnd_bytes) break;
    const Tick now = sim().Now();
    // DCTCP+ pacing gate, modelling the paper's hrtimer around
    // tcp_transmit_skb: while the regulator is engaged, every data
    // segment -- including the first after idle and post-timeout
    // retransmissions -- waits slow_time before entering the network.
    // `pace_armed_` marks a reserved slot not yet consumed by a send.
    const Tick delay = cc_->PacingDelay(*this, rng_);
    if (delay > 0) {
      if (!pace_armed_) {
        pace_until_ = now + delay;
        pace_armed_ = true;
      }
      if (now < pace_until_) {
        pace_timer_.Schedule(pace_until_ - now);
        return;
      }
      pace_armed_ = false;  // slot consumed by this segment
    } else {
      pace_armed_ = false;
    }
    // Offsets below the high-water mark are retransmissions of data first
    // sent before an RTO rewound stream_next_.
    SendDataSegment(stream_next_, len,
                    /*retransmit=*/stream_next_ < stream_max_sent_);
    stream_next_ += len;
  }

  // A FIN follows once every queued byte has been transmitted.
  if (fin_pending_ && !fin_sent_ && stream_next_ == app_bytes_queued_) {
    fin_sent_ = true;
    SendControl(/*syn=*/false, /*fin=*/true, /*ack=*/true);
    if (state_ == State::kEstablished) state_ = State::kFinWait;
    if (state_ == State::kCloseWait) state_ = State::kLastAck;
    ArmRtoTimer();
  }
}

bool TcpSocket::SendDataSegment(std::int64_t offset, Bytes len,
                                bool retransmit) {
  DCTCPP_ASSERT(len > 0);
  Packet pkt = MakePacket();
  pkt.tcp.seq = SeqOfStream(offset).raw();
  pkt.tcp.ack_flag = irs_valid_;
  if (irs_valid_) {
    pkt.tcp.ack = (rx_.rcv_nxt() + (peer_fin_received_ ? 1 : 0)).raw();
    pkt.tcp.ece = ReceiverEce();  // piggybacked echo
  }
  pkt.payload = static_cast<std::int32_t>(len);
  pkt.ecn = ecn_ok_ ? Ecn::kEct : Ecn::kNotEct;
  if (cwr_pending_) {
    pkt.tcp.cwr = true;
    cwr_pending_ = false;
  }

  stream_max_sent_ = std::max(stream_max_sent_, offset + len);
  if (retransmit) {
    ++stats_.segments_retransmitted;
    // Karn: a retransmitted range can no longer produce an RTT sample.
    if (rtt_pending_ && offset < rtt_offset_end_) InvalidateRttSample();
  } else if (!rtt_pending_) {
    rtt_pending_ = true;
    rtt_offset_end_ = offset + len;
    rtt_sent_at_ = sim().Now();
  }
  ++stats_.segments_sent;
  if (probe_ != nullptr) probe_->OnSegmentSent(*this, pkt, retransmit);

  host_.Send(pkt);
  if (!rto_timer_.IsPending()) ArmRtoTimer();
  return true;
}

// ---------------------------------------------------------------------------
// Loss recovery

void TcpSocket::EnterFastRetransmit() {
  ++stats_.fast_retransmits;
  ssthresh_ = std::max(cc_->SsthreshAfterLoss(*this), cc_->MinCwnd());
  in_recovery_ = true;
  recover_ = stream_next_;
  cwnd_ = ssthresh_ + 3;
  cc_->OnFastRetransmit(*this);
  if (probe_ != nullptr) probe_->OnFastRetransmit(*this);
  if (sack_ok_) {
    sack_rtx_next_ = stream_acked_;  // new episode: repair from the edge
    if (RetransmitNextHole()) return;
  }
  if (FlightSize() > 0) {
    SendDataSegment(stream_acked_,
                    std::min<Bytes>(config_.mss, FlightSize()),
                    /*retransmit=*/true);
  }
}

void TcpSocket::OnRetransmissionTimeout() {
  // Handshake and FIN retransmissions carry no congestion-control
  // significance in the model beyond RTO backoff.
  if (state_ == State::kSynSent) {
    rto_.Backoff();
    SendControl(/*syn=*/true, /*fin=*/false, /*ack=*/false);
    ArmRtoTimer();
    return;
  }
  if (state_ == State::kSynRcvd) {
    rto_.Backoff();
    SendControl(/*syn=*/true, /*fin=*/false, /*ack=*/true);
    ArmRtoTimer();
    return;
  }

  const bool data_outstanding = FlightSize() > 0;
  if (!data_outstanding && fin_sent_ && !fin_acked_) {
    rto_.Backoff();
    SendControl(/*syn=*/false, /*fin=*/true, /*ack=*/true);
    ArmRtoTimer();
    return;
  }
  if (!data_outstanding) return;  // spurious (everything got acked)

  ++stats_.timeouts;
  if (FlightRecorder* fr = sim().flight_recorder()) {
    fr->Record(FrEvent::kRto, sim().shard_id(), sim().Now(),
               FrSocketPayload(static_cast<std::uint32_t>(host_.id()),
                               local_port_,
                               static_cast<std::uint32_t>(stats_.timeouts)));
  }
  // Taxonomy of the paper's Table I: with zero feedback since the timer
  // was armed the whole window was lost (FLoss-TO); with some feedback but
  // not the three duplicates needed for fast retransmit it is LAck-TO.
  const TimeoutKind kind =
      (dupacks_since_arm_ == 0 && progress_since_arm_ == 0)
          ? TimeoutKind::kFullWindowLoss
          : TimeoutKind::kLackOfAcks;
  if (probe_ != nullptr) probe_->OnTimeout(*this, kind);

  cc_->OnRetransmissionTimeout(*this);

  ssthresh_ = std::max(cwnd_ / 2, 2);
  cwnd_ = 1;  // RFC 5681 loss window
  in_recovery_ = false;
  dupacks_ = 0;
  stream_next_ = stream_acked_;  // go-back-N from the hole
  sack_rtx_next_ = stream_acked_;
  InvalidateRttSample();
  rto_.Backoff();
  ArmRtoTimer();

  // The retransmission goes through the normal (pacing-gated) send path:
  // DCTCP+ deliberately staggers post-timeout retransmissions, which would
  // otherwise leave the concurrent flows RTO-synchronized.
  TrySend();
}

void TcpSocket::ArmRtoTimer() {
  rto_timer_.Schedule(rto_.Rto());
  dupacks_since_arm_ = 0;
  progress_since_arm_ = 0;
}

void TcpSocket::MaybeCancelRtoTimer() { rto_timer_.Cancel(); }

void TcpSocket::FinalizeClose() {
  state_ = State::kClosed;
  rto_timer_.Cancel();
  delack_timer_.Cancel();
  pace_timer_.Cancel();
  if (registered_) {
    host_.UnregisterConnection(local_port_, remote_, remote_port_);
    registered_ = false;
  }
  if (on_closed_) on_closed_();
}

// ---------------------------------------------------------------------------
// Checkpoint

void TcpSocket::SaveState(CheckpointWriter& w) const {
  w.U8(static_cast<std::uint8_t>(state_));
  w.Bool(registered_);
  w.Bool(syn_acked_);
  w.Bool(fin_pending_);
  w.Bool(fin_sent_);
  w.Bool(fin_acked_);
  w.Bool(in_recovery_);
  w.Bool(sack_ok_);
  w.Bool(ecn_ok_);
  w.Bool(cwr_pending_);
  w.Bool(rtt_pending_);
  w.Bool(irs_valid_);
  w.Bool(peer_fin_received_);
  w.Bool(rx_ce_state_);
  w.Bool(rx_ece_latched_);
  w.Bool(pace_armed_);

  w.U32(static_cast<std::uint32_t>(remote_));
  w.U32(local_port_);
  w.U32(remote_port_);

  w.I64(stream_acked_);
  w.I64(stream_next_);
  w.I64(stream_max_sent_);
  w.I64(app_bytes_queued_);

  w.I64(cwnd_);
  w.I64(ssthresh_);
  w.I64(dupacks_);
  w.I64(recover_);

  w.I64(rtt_offset_end_);
  w.I64(rtt_sent_at_);
  rto_.SaveState(w);
  w.U64(dupacks_since_arm_);
  w.U64(progress_since_arm_);

  w.U64(stats_.segments_sent);
  w.U64(stats_.segments_retransmitted);
  w.U64(stats_.timeouts);
  w.U64(stats_.fast_retransmits);
  w.U64(stats_.acks_received);
  w.U64(stats_.ece_acks_received);
  w.U64(stats_.acks_sent);

  w.U32(iss_.raw());
  std::uint64_t rng_state[4];
  rng_.SaveState(rng_state);
  for (std::uint64_t s : rng_state) w.U64(s);
  cc_->SaveState(w);

  w.U64(sacked_.size());
  sacked_.ForEach([&w](const Interval& iv) {
    w.I64(iv.start);
    w.I64(iv.end);
    return true;
  });
  w.I64(sack_high_);
  w.I64(sack_rtx_next_);

  rto_timer_.SaveState(w);
  rx_.SaveState(w);
  w.I64(unacked_segments_);
  delack_timer_.SaveState(w);
  w.I64(pace_until_);
  pace_timer_.SaveState(w);
}

void TcpSocket::LoadState(CheckpointReader& r) {
  DCTCPP_ASSERT(state_ == State::kClosed && !registered_);

  state_ = static_cast<State>(r.U8());
  registered_ = r.Bool();
  syn_acked_ = r.Bool();
  fin_pending_ = r.Bool();
  fin_sent_ = r.Bool();
  fin_acked_ = r.Bool();
  in_recovery_ = r.Bool();
  sack_ok_ = r.Bool();
  ecn_ok_ = r.Bool();
  cwr_pending_ = r.Bool();
  rtt_pending_ = r.Bool();
  irs_valid_ = r.Bool();
  peer_fin_received_ = r.Bool();
  rx_ce_state_ = r.Bool();
  rx_ece_latched_ = r.Bool();
  pace_armed_ = r.Bool();

  remote_ = static_cast<NodeId>(r.U32());
  local_port_ = r.U32();
  remote_port_ = r.U32();

  stream_acked_ = r.I64();
  stream_next_ = r.I64();
  stream_max_sent_ = r.I64();
  app_bytes_queued_ = r.I64();

  cwnd_ = static_cast<int>(r.I64());
  ssthresh_ = static_cast<int>(r.I64());
  dupacks_ = static_cast<int>(r.I64());
  recover_ = r.I64();

  rtt_offset_end_ = r.I64();
  rtt_sent_at_ = r.I64();
  rto_.LoadState(r);
  dupacks_since_arm_ = r.U64();
  progress_since_arm_ = r.U64();

  stats_.segments_sent = r.U64();
  stats_.segments_retransmitted = r.U64();
  stats_.timeouts = r.U64();
  stats_.fast_retransmits = r.U64();
  stats_.acks_received = r.U64();
  stats_.ece_acks_received = r.U64();
  stats_.acks_sent = r.U64();

  iss_ = SeqNum(r.U32());
  std::uint64_t rng_state[4];
  for (std::uint64_t& s : rng_state) s = r.U64();
  rng_.LoadState(rng_state);
  cc_->LoadState(r);

  sacked_.clear();
  const std::uint64_t n_sacked = r.U64();
  for (std::uint64_t i = 0; i < n_sacked; ++i) {
    const std::int64_t start = r.I64();
    sacked_.Add(start, r.I64());
  }
  sack_high_ = r.I64();
  sack_rtx_next_ = r.I64();

  rto_timer_.LoadState(r);
  rx_.LoadState(r);
  unacked_segments_ = static_cast<int>(r.I64());
  delack_timer_.LoadState(r);
  pace_until_ = r.I64();
  pace_timer_.LoadState(r);

  // Rebuild the host-side demux entry (and its port refcount) exactly as
  // Connect/AcceptFrom did in the saved run.
  if (registered_) {
    host_.RegisterConnection(local_port_, remote_, remote_port_,
                             [this](const Packet& p) { OnPacket(p); });
  }
}

// ---------------------------------------------------------------------------
// Listener

TcpListener::TcpListener(Host& host, PortNum port, CcFactory cc_factory,
                         TcpSocket::Config config, AcceptCallback on_accept)
    : host_(host),
      port_(port),
      cc_factory_(std::move(cc_factory)),
      config_(config),
      on_accept_(std::move(on_accept)) {
  DCTCPP_ASSERT(cc_factory_ != nullptr);
  DCTCPP_ASSERT(on_accept_ != nullptr);
  host_.Listen(port_, [this](const Packet& p) { OnPacket(p); });
}

TcpListener::~TcpListener() { host_.StopListening(port_); }

void TcpListener::OnPacket(const Packet& pkt) {
  if (!pkt.tcp.syn || pkt.tcp.ack_flag) return;  // only fresh SYNs
  TcpSocket::Ptr socket = MakeArena<TcpSocket>(host_.sim().arena(), host_,
                                               cc_factory_(), config_);
  socket->AcceptFrom(pkt);
  on_accept_(std::move(socket));
}

}  // namespace dctcpp
