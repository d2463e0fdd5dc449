// RAII handle to a pinned scheduler event: one pre-allocated timer-wheel
// node bound to a single `fn(ctx)` callback for its whole life, re-armed
// in place as many times as needed.
//
// This is the scheduling primitive for callers that fire the same
// continuation once per packet or per timer window (TcpSocket's timers
// via Timer, the impairment stage's release event). A plain
// Simulator::Schedule pays node allocation, callable relocation, and node
// recycling on every event; arming a pinned event is just re-homing the
// node in the wheel. The callback is a bare function pointer, so firing
// involves no callable object whose lifetime could end mid-invoke: the
// callback may re-arm — or even destroy — its own event.
#pragma once

#include <cstdint>

#include "dctcpp/sim/simulator.h"

namespace dctcpp {

class PinnedEvent {
 public:
  using Fn = void (*)(void*);

  /// Binds `fn(ctx)`; the usual pattern is a captureless lambda downcasting
  /// `ctx` to the owner: `PinnedEvent ev{sim, [](void* p) {
  /// static_cast<Owner*>(p)->OnFire(); }, this};`
  PinnedEvent(Simulator& sim, Fn fn, void* ctx)
      : sim_(sim), idx_(sim.scheduler().CreatePinned(fn, ctx)) {}

  ~PinnedEvent() { sim_.scheduler().DestroyPinned(idx_); }

  PinnedEvent(const PinnedEvent&) = delete;
  PinnedEvent& operator=(const PinnedEvent&) = delete;

  /// (Re-)arms at absolute time `at` (>= Now()); a pending arming is
  /// replaced, as if cancelled and freshly scheduled.
  void ArmAt(Tick at) { sim_.scheduler().ArmPinnedAt(idx_, at); }
  void ArmIn(Tick delay) { ArmAt(sim_.Now() + delay); }

  /// Disarms; no-op when idle.
  void Cancel() { sim_.scheduler().CancelPinned(idx_); }

  bool armed() const { return sim_.scheduler().PinnedArmed(idx_); }

  /// The Simulator this event is pinned in.
  Simulator& sim() const { return sim_; }

  // Checkpoint/restore: the pending arming's exact (at, seq), and re-arming
  // with a saved seq so restored pop order matches the saved run.
  void Arming(Tick* at, std::uint64_t* seq) const {
    sim_.scheduler().PinnedArming(idx_, at, seq);
  }
  void ArmAtWithSeq(Tick at, std::uint64_t seq) {
    sim_.scheduler().ArmPinnedAtWithSeq(idx_, at, seq);
  }

 private:
  Simulator& sim_;
  std::uint32_t idx_;
};

}  // namespace dctcpp
