// Cancellable one-shot timer bound to a Simulator.
//
// This is the simulation analogue of the kernel hrtimer the paper uses to
// delay `tcp_transmit_skb()`: Schedule/Restart arm it, Cancel disarms it,
// and the callback fires at most once per arming. The owner must outlive
// the timer's pending events or cancel in its destructor — Timer cancels
// itself on destruction, so embedding a Timer by value in the owner is the
// safe pattern.
//
// The scheduler side is a single pinned event (see pinned_event.h), so a
// timer costs one wheel-node allocation for its whole life, and arming
// never moves a callable. Re-arming is additionally lazy: pushing the
// deadline *out* while an event is pending keeps the old arming in place
// instead of paying an unlink+re-home pair; when the stale arming pops
// early, Fire() sees the true deadline still lies ahead and re-homes
// itself once. A sender that re-arms its RTO timer on every ACK (RFC 6298
// 5.3) therefore touches the wheel once per expiry window, not once per
// ACK — the callback still runs exactly at the most recent deadline,
// never early and never late.
//
// Size budget: a Timer is 72 bytes, and every TcpSocket embeds three (RTO,
// delayed ACK, pacing), so this is per-flow memory in the massive-
// concurrent-flow regime. The callback is an InlineHandler<void()>: at
// most 24 bytes of capture, trivially copyable, never boxed — a `[this]`
// or a few raw pointers and ids (the churn departure timer captures
// `[w, host, idx]`). Larger or owning captures are a compile error; put
// that state in the object the captured pointer refers to. The Simulator
// is reached through the pinned event, not stored twice.
#pragma once

#include "dctcpp/sim/checkpoint.h"
#include "dctcpp/sim/pinned_event.h"
#include "dctcpp/sim/simulator.h"
#include "dctcpp/util/inline_function.h"

namespace dctcpp {

class Timer {
 public:
  /// Trivially copyable, <= 24 bytes of capture (see the header comment).
  using Callback = InlineHandler<void()>;

  Timer(Simulator& sim, Callback cb)
      : callback_(cb),
        ev_(sim, [](void* p) { static_cast<Timer*>(p)->Fire(); }, this) {}

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Opts this timer into lazy cancellation: Cancel() only clears the
  /// logical arming and leaves the wheel node in place, where the next
  /// Schedule() usually reclaims it without touching the wheel; if none
  /// comes, the stale pop fires into nothing. The right trade for timers
  /// cancelled and re-armed once per packet (delayed ACK: arm on data,
  /// cancel on every ACK sent) — the wheel is touched once per expiry
  /// window instead of twice per packet. Keep eager cancel (default) for
  /// timers whose pending arming is long compared to the run (RTO), where
  /// a parked stale event would only delay queue drain.
  void SetLazyCancel(bool lazy) { lazy_cancel_ = lazy; }

  /// Arms the timer `delay` from now. Re-arming while pending reschedules
  /// (lazily when the deadline only moves out — see the header comment).
  void Schedule(Tick delay) {
    armed_ = true;
    expires_at_ = ev_.sim().Now() + delay;
    if (event_pending_ && event_at_ <= expires_at_) return;  // Fire() defers
    event_pending_ = true;
    event_at_ = expires_at_;
    ev_.ArmAt(expires_at_);
  }

  /// Disarms; no-op if not pending. Lazy-cancel timers keep their wheel
  /// arming (see SetLazyCancel); the callback is suppressed either way.
  void Cancel() {
    armed_ = false;
    if (event_pending_ && !lazy_cancel_) {
      event_pending_ = false;
      ev_.Cancel();
    }
  }

  bool IsPending() const { return armed_; }

  /// Absolute expiry of the current arming (meaningful while pending).
  Tick expires_at() const { return expires_at_; }

  /// Checkpoint: all five lazy-arm fields plus the wheel arming's exact
  /// (at, seq) when one exists, so a restored timer reproduces stale pops
  /// and deferred re-homes identically.
  void SaveState(CheckpointWriter& w) const {
    w.Bool(armed_);
    w.Bool(lazy_cancel_);
    w.Bool(event_pending_);
    w.I64(expires_at_);
    w.I64(event_at_);
    if (event_pending_) {
      Tick at = 0;
      std::uint64_t seq = 0;
      ev_.Arming(&at, &seq);
      DCTCPP_ASSERT(at == event_at_);
      w.U64(seq);
    }
  }
  void LoadState(CheckpointReader& r) {
    armed_ = r.Bool();
    lazy_cancel_ = r.Bool();
    event_pending_ = r.Bool();
    expires_at_ = r.I64();
    event_at_ = r.I64();
    if (event_pending_) ev_.ArmAtWithSeq(event_at_, r.U64());
  }

 private:
  void Fire() {
    event_pending_ = false;
    if (!armed_) return;
    if (ev_.sim().Now() < expires_at_) {
      // Stale pop from a lazy re-arm: home at the true deadline.
      event_pending_ = true;
      event_at_ = expires_at_;
      ev_.ArmAt(expires_at_);
      return;
    }
    armed_ = false;
    callback_();
  }

  Callback callback_;
  bool armed_ = false;
  bool lazy_cancel_ = false;
  bool event_pending_ = false;
  Tick expires_at_ = 0;
  Tick event_at_ = 0;  ///< where the pending arming actually sits
  PinnedEvent ev_;     ///< last member: released before callback_ dies
};

static_assert(sizeof(Timer) <= 72,
              "Timer is per-flow memory (three per TcpSocket); keep it small");

}  // namespace dctcpp
