// DCTCP+ congestion control -- the paper's contribution.
//
// DCTCP+ is DCTCP plus two mechanisms for the massive-concurrent-flow
// (high fan-in) regime where window-based control bottoms out:
//
//  1. Sending-interval regulation: when cwnd sits at its floor and the
//     ECN feedback (or a retransmission timeout) still asks for less, the
//     sender delays each transmission by `slow_time`, regulated AIMD-style
//     by the SlowTimeRegulator.
//  2. Desynchronization: the additive increments are randomized, so the
//     concurrent flows' transmissions spread out instead of arriving as
//     one synchronized burst that overflows the small pipeline capacity.
//
// The paper's kernel patch hooks tcp_transmit_skb() through an hrtimer;
// here the equivalent is the PacingDelay() gate the socket consults before
// each segment. Following the paper (Sec. VI footnote 3), the cwnd floor
// defaults to 1 MSS for a smoother handoff between window and interval
// regulation.
#pragma once

#include "dctcpp/core/slow_time.h"
#include "dctcpp/dctcp/dctcp.h"

namespace dctcpp {

class DctcpPlusCc : public DctcpCc {
 public:
  struct Config {
    DctcpCc::Config dctcp{.g = 1.0 / 16.0,
                          .alpha0 = 1.0,
                          .initial_cwnd = 3,
                          .min_cwnd = 1};
    SlowTimeRegulator::Config regulator;
  };

  DctcpPlusCc();  // default Config
  explicit DctcpPlusCc(const Config& config);

  const char* Name() const override { return "dctcp+"; }

  void OnAck(TcpSocket& sk, const AckContext& ctx) override;
  void OnRetransmissionTimeout(TcpSocket& sk) override;
  void OnFastRetransmit(TcpSocket& sk) override;
  Tick PacingDelay(TcpSocket& sk, Rng& rng) override;

  /// Pacing can only be engaged (or engage itself during a clean ACK's
  /// OnAck) outside kNormal: kNormal -> kTimeInc requires a congestion
  /// signal, which a clean (no-ECE) ACK never carries.
  bool MayPace(const TcpSocket& sk) const override {
    (void)sk;
    return regulator_.state() != PlusState::kNormal;
  }

  const SlowTimeRegulator& regulator() const { return regulator_; }
  PlusState plus_state() const { return regulator_.state(); }
  Tick slow_time() const { return regulator_.slow_time(); }

  void SaveState(CheckpointWriter& w) const override {
    DctcpCc::SaveState(w);
    regulator_.SaveState(w);
    w.I64(decay_window_end_);
    w.Bool(window_saw_congestion_);
    w.Bool(window_armed_);
  }
  void LoadState(CheckpointReader& r) override {
    DctcpCc::LoadState(r);
    regulator_.LoadState(r);
    decay_window_end_ = r.I64();
    window_saw_congestion_ = r.Bool();
    window_armed_ = r.Bool();
  }

 private:
  SlowTimeRegulator regulator_;
  // One clean-window evaluation per window of data: congestion signals
  // (ECE, retrans) evolve the machine immediately, but the
  // "no-more-congestion" decay is assessed once per window, mirroring
  // DCTCP's per-window alpha cadence. Without this, the few unmarked ACKs
  // at the tail of a request round dismantle the pacing state that the
  // next round's fan-in burst still needs.
  std::int64_t decay_window_end_ = 0;
  bool window_saw_congestion_ = false;
  bool window_armed_ = false;
};

}  // namespace dctcpp
