// TCP+ — the paper's Sec. VII extension: the DCTCP+ enhancement mechanism
// "coalesced with other transmission control protocols", here plain
// (non-ECN) TCP NewReno.
//
// Without ECN the only congestion evidence is loss, so the Fig. 4 state
// machine is driven purely by retransmission events: a retransmission
// timeout, or a fast retransmit that collapsed the window to the floor,
// plays the `retrans` role; a window of data acknowledged without any
// loss is the all-clear. Everything else — the AIMD slow_time law,
// randomized increments, pacing of every transmission, and the window
// freeze while engaged — is exactly the DCTCP+ machinery.
#pragma once

#include "dctcpp/core/slow_time.h"
#include "dctcpp/tcp/newreno.h"

namespace dctcpp {

class TcpPlusCc : public NewRenoCc {
 public:
  struct Config {
    NewRenoCc::Config newreno{.ecn = false,
                              .initial_cwnd = 3,
                              .min_cwnd = 1};
    SlowTimeRegulator::Config regulator;
  };

  TcpPlusCc();  // default Config
  explicit TcpPlusCc(const Config& config);

  const char* Name() const override { return "tcp+"; }

  void OnAck(TcpSocket& sk, const AckContext& ctx) override;
  void OnRetransmissionTimeout(TcpSocket& sk) override;
  void OnFastRetransmit(TcpSocket& sk) override;
  Tick PacingDelay(TcpSocket& sk, Rng& rng) override;

  /// Same argument as DctcpPlusCc::MayPace: kNormal cannot engage pacing
  /// without a congestion signal.
  bool MayPace(const TcpSocket& sk) const override {
    (void)sk;
    return regulator_.state() != PlusState::kNormal;
  }

  const SlowTimeRegulator& regulator() const { return regulator_; }
  PlusState plus_state() const { return regulator_.state(); }
  Tick slow_time() const { return regulator_.slow_time(); }

  void SaveState(CheckpointWriter& w) const override {
    NewRenoCc::SaveState(w);
    regulator_.SaveState(w);
    w.I64(window_end_);
    w.Bool(window_saw_loss_);
    w.Bool(window_armed_);
  }
  void LoadState(CheckpointReader& r) override {
    NewRenoCc::LoadState(r);
    regulator_.LoadState(r);
    window_end_ = r.I64();
    window_saw_loss_ = r.Bool();
    window_armed_ = r.Bool();
  }

 private:
  SlowTimeRegulator regulator_;
  // Per-window loss accounting: a window that completes without a
  // retransmission event is the machine's "no more congestion" signal.
  std::int64_t window_end_ = 0;
  bool window_saw_loss_ = false;
  bool window_armed_ = false;
};

}  // namespace dctcpp
