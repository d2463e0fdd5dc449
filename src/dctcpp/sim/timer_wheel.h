// Production discrete-event scheduler: hierarchical timer wheel.
//
// Level 0 has 2^14 one-tick slots (16.4 us at 1 ns/tick) indexed through a
// two-level occupancy bitmap; levels 1..6 have 64 slots each of width
// 2^14 * 64^(k-1), so the wheel spans 2^50 ticks (~13 simulated days).
// Level 0 is deliberately wide enough to cover a packet's serialization
// plus propagation time on the modelled links: the per-packet datapath
// event (a port's DeliverHead, re-armed one serialization time out while
// it drains) is homed directly into its final slot and never cascades —
// placement is one masked index plus two bitmap ORs. Events farther out than the span wait
// in a small min-heap overflow level and are popped from there directly.
// Events live in a free-listed pool of intrusively doubly-linked nodes, so
// scheduling performs no heap allocation in steady state and cancellation
// is an O(1) unlink — no `unordered_set`, no lazy tombstones on the hot
// path. One-shot events keep their InlineAction in a second free-listed
// pool beside the nodes: pinned nodes (every port, socket timer and host
// arrival) never carry an action, so the node itself stays 48 bytes.
// `EventId`s carry a per-node generation counter, so a stale handle (fired
// or cancelled) can never cancel a later event that reuses the same pool
// slot.
//
// Determinism contract (identical to the binary-heap reference scheduler
// in tests/reference/, proven by tests/scheduler_diff_test.cc): events
// pop in (time, insertion sequence) order — same-tick events fire in the
// order they were scheduled, globally, regardless of which wheel level
// they transited. Slot lists are kept sorted by sequence number to preserve
// this across cascades.
//
// Invariants (now_ == timestamp of the last popped event):
//  - level-0 events have `at` in [now_, now_+2^14); each occupied slot
//    holds exactly one timestamp, so the earliest event is found with a
//    circular find-first-set over the two-level bitmap;
//  - level-k (k>=1) events have `at` in (now_, now_ + width_k * 64); the
//    slot at the wheel's current position is always empty, so occupied
//    slots map to exactly one lap and slot base times are totally ordered
//    circularly from the position;
//  - when time advances across a level-k window boundary, the level-(k+1)
//    slots passed over are cascaded (re-homed) into lower levels, each
//    event cascading at most once per level over its lifetime.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "dctcpp/sim/event_id.h"
#include "dctcpp/sim/inline_action.h"
#include "dctcpp/util/assert.h"
#include "dctcpp/util/time.h"

namespace dctcpp {

class TimerWheelScheduler {
 public:
  using Action = InlineAction;

  TimerWheelScheduler();

  /// Schedules `action` at absolute time `at`. Must satisfy `at >= ` the
  /// timestamp of the last popped event (the owning simulator's Now()
  /// guarantee implies this).
  EventId ScheduleAt(Tick at, Action action);

  /// Cancels a pending event; harmless if it already fired, was already
  /// cancelled, or the handle is stale (generation-checked).
  void Cancel(EventId id);

  // -------------------------------------------------------------------------
  // Pinned events: a node allocated once and re-armed many times, for
  // callers that fire the same callback over and over (a port's
  // transmit/deliver continuations, a socket's timers). Arming is just
  // re-homing the node — no pool traffic, no callable moves, no handle
  // generation churn. The callback is a bare function pointer + context,
  // so firing touches no object with a lifetime: the callback may re-arm
  // or even destroy its own pinned event.

  using PinnedFn = void (*)(void*);

  /// Allocates a parked pinned node bound to `fn(ctx)` for its lifetime.
  std::uint32_t CreatePinned(PinnedFn fn, void* ctx);
  /// Returns the node to the pool (cancelling any pending arming).
  void DestroyPinned(std::uint32_t idx);
  /// (Re-)arms at absolute time `at` (>= the clock); a pending arming is
  /// replaced, and the firing order is as if freshly scheduled now.
  void ArmPinnedAt(std::uint32_t idx, Tick at);
  /// Disarms; no-op when parked.
  void CancelPinned(std::uint32_t idx);
  bool PinnedArmed(std::uint32_t idx) const {
    return NodeAt(idx).loc != kLocParked;
  }

  bool Empty() const { return live_count_ == 0; }
  std::size_t PendingCount() const { return live_count_; }

  /// Exact time of the earliest pending event; kTickMax if none.
  Tick NextTime();

  /// Pops and runs the earliest event. Returns its timestamp.
  /// Precondition: !Empty().
  Tick RunNext();

  /// Runs events in order while the earliest is at or before `deadline`
  /// and `*stop` stays false, mirroring each event's timestamp into
  /// `*sim_now` before invoking it. Behaves exactly like the
  /// NextTime()/RunNext() loop it replaces, but lives in one translation
  /// unit so the whole pop path (scan, unlink, recycle, dispatch) inlines
  /// into a single frame, and same-tick level-0 slots holding several
  /// events are drained whole into a run-buffer (one slot unlink + bitmap
  /// clear per burst instead of one per event) — execution order is still
  /// exactly (time, seq), so the batch is observationally identical to
  /// pop-per-event. Returns the number of events executed.
  std::uint64_t RunLoop(Tick deadline, const bool* stop, Tick* sim_now);

  /// Total events ever executed (for instrumentation).
  std::uint64_t executed() const { return executed_; }

  // -------------------------------------------------------------------------
  // Checkpoint/restore hooks (sim/checkpoint.h). The blob records each
  // pending event's (at, seq); on restore, owners re-arm their events with
  // the saved seq so the pop order — which is purely (time, seq) — matches
  // the uninterrupted run exactly, regardless of node-index differences
  // between the two worlds. The restore protocol is: RestoreClock() on an
  // empty wheel, owners re-arm via the WithSeq variants in any order, then
  // SetNextSeq()/SetExecuted() reinstate the counters.

  /// Insertion sequence the next ScheduleAt/ArmPinnedAt would consume.
  std::uint64_t next_seq() const { return next_seq_; }
  /// Restores the sequence counter. Call after every WithSeq re-arm.
  void SetNextSeq(std::uint64_t seq) { next_seq_ = seq; }
  /// Restores the executed-events counter.
  void SetExecuted(std::uint64_t n) { executed_ = n; }

  /// Resets the wheel clock to `t`. Precondition: no live events (a fresh
  /// wheel, or one fully drained) — placement math is relative to now_, so
  /// moving the clock under pending events would corrupt slot homes.
  void RestoreClock(Tick t);

  /// ScheduleAt with an explicit insertion sequence; does not consume or
  /// disturb next_seq_. Restore path only.
  EventId ScheduleAtWithSeq(Tick at, Action action, std::uint64_t seq);
  /// ArmPinnedAt with an explicit insertion sequence. Restore path only.
  void ArmPinnedAtWithSeq(std::uint32_t idx, Tick at, std::uint64_t seq);

  /// (at, seq) of a pinned node's pending arming. Precondition: armed.
  void PinnedArming(std::uint32_t idx, Tick* at, std::uint64_t* seq) const {
    const Node& n = NodeAt(idx);
    DCTCPP_ASSERT(n.loc != kLocParked && n.loc != kLocFree);
    *at = n.at;
    *seq = n.seq;
  }

  /// Bytes held by the node and action pools (footprint accounting for
  /// the churn bench's bytes-per-flow gate).
  std::size_t PoolBytes() const {
    return chunks_.size() * kChunkSize * sizeof(Node) +
           action_chunks_.size() * kActionChunkSize * sizeof(InlineAction) +
           free_actions_.capacity() * sizeof(InlineAction*);
  }

  /// Events currently parked in the far-future overflow heap (untracked
  /// stale entries excluded). Exposed for tests.
  std::size_t OverflowCount() const;

 private:
  static constexpr int kL0Bits = 14;
  static constexpr int kL0Slots = 1 << kL0Bits;  // 16384 one-tick slots
  static constexpr int kL0Words = kL0Slots / 64;
  static constexpr int kL0SumWords = kL0Words / 64;
  static constexpr int kLevelBits = 6;
  static constexpr int kSlotsPerLevel = 1 << kLevelBits;  // 64
  static constexpr int kUpperLevels = 6;                  // levels 1..6
  static constexpr Tick kWheelSpan =
      Tick(1) << (kL0Bits + kLevelBits * kUpperLevels);  // 2^50
  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// Bit position of upper level k's slot index within a timestamp.
  static constexpr int UpperShift(int k) {
    return kL0Bits + kLevelBits * (k - 1);
  }

  enum Location : std::int8_t {
    kLocFree = 0,
    kLocWheel = 1,
    kLocHeap = 2,
    kLocParked = 3,  // pinned node, currently disarmed
    kLocBatch = 4,   // unlinked into the same-tick run-buffer, not yet run
  };

  // 48 bytes, everything the wheel machinery touches (placement, slot-list
  // links, cascades, the scan) plus the dispatch pair. A one-shot node's
  // action lives out of line in the action pool, reached through `ctx`, so
  // pinned nodes pay nothing for a buffer they never use.
  struct Node {
    Tick at = 0;
    std::uint64_t seq = 0;
    PinnedFn pin_fn = nullptr;  // set <=> pinned node
    void* ctx = nullptr;  // pinned: pin_fn's argument; one-shot: its action
    std::uint32_t gen = 0;
    std::uint32_t next = kNil;
    std::uint32_t prev = kNil;
    std::int8_t loc = kLocFree;
    std::int8_t level = -1;
    std::int16_t slot = -1;
  };
  static_assert(sizeof(Node) == 48,
                "a wheel node is per-flow memory: keep it at 48 bytes");

  /// Paired slot header: head and tail of a slot's intrusive list share a
  /// cache line (and usually a single 8-byte load/store), where the old
  /// parallel head[]/tail[] arrays put them a wheel apart. static_assert
  /// below pins the packed layout the hot path relies on.
  struct Slot {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };
  static_assert(sizeof(Slot) == 8, "slot header must stay one 8-byte pair");

  struct HeapEntry {
    Tick at;
    std::uint64_t seq;
    std::uint32_t idx;
    std::uint32_t gen;
  };

  /// One not-yet-run event in the same-tick run-buffer. `seq` (together
  /// with loc == kLocBatch) revalidates the node at dispatch: a mid-batch
  /// Cancel/CancelPinned/re-arm changes loc or seq and voids the entry.
  struct BatchEntry {
    std::uint64_t seq;
    std::uint32_t idx;
  };
  struct HeapLater {  // min-heap on (at, seq) via std::*_heap
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  static constexpr std::uint32_t kChunkShift = 10;  // 1024 nodes per chunk
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr std::uint32_t kActionChunkSize = 256;

  Node& NodeAt(std::uint32_t idx) {
    return chunks_[idx >> kChunkShift][idx & (kChunkSize - 1)];
  }
  const Node& NodeAt(std::uint32_t idx) const {
    return chunks_[idx >> kChunkShift][idx & (kChunkSize - 1)];
  }

  std::uint32_t AllocNode();
  /// Recycles a node. A one-shot node's action is not touched: the caller
  /// runs or releases it.
  void FreeNode(Node& n, std::uint32_t idx);
  /// Takes an empty action slot; FreeAction destroys the callable and
  /// returns the slot. Slots never move (chunked), so a callback may
  /// schedule while its own action is still running in place.
  InlineAction* AllocAction();
  void FreeAction(InlineAction* action);
  /// Runs a popped event from its saved (pin_fn, ctx) pair: a pinned
  /// callback, or a one-shot action run in place and then released. The
  /// node is already parked or freed, so either may re-arm or reuse it.
  void Dispatch(PinnedFn pin_fn, void* ctx);

  /// Homes a node into the wheel (or overflow heap) based on `at - now_`.
  void Place(std::uint32_t idx, Node& n);
  /// Inserts into a slot list keeping it sorted by seq (append-fast).
  void LinkSorted(int level, int slot, std::uint32_t idx, Node& n);
  void Unlink(std::uint32_t idx, Node& n);

  void SetL0Bit(int slot);
  void ClearL0Bit(int slot);
  /// First occupied level-0 slot at circular distance >= 0 from `pos`
  /// (absolute slot index), or -1 if level 0 is empty.
  int FindL0From(int pos) const;

  /// Advances the wheel to `t` (<= every pending event's time), cascading
  /// higher-level slots whose windows were entered or passed. The no-cascade
  /// fast path is inline: datapath events advance time by a few
  /// microseconds, so a level-1 window boundary is rarely crossed (this
  /// also covers t == now_).
  void AdvanceTo(Tick t) {
    DCTCPP_DASSERT(t >= now_);
    if (((now_ ^ t) >> kL0Bits) == 0) {
      now_ = t;
      return;
    }
    AdvanceCascade(t);
  }
  void AdvanceCascade(Tick t);

  /// Drops stale heap tops, then computes the exact earliest pending event
  /// into the cached_* fields (kTickMax/kNil when empty).
  void EnsureNext();

  /// Drains the whole level-0 slot holding the cached minimum into the
  /// run-buffer and dispatches its events in seq order, revalidating each
  /// entry against mid-batch cancellation. Precondition: EnsureNext() done,
  /// cached minimum is a multi-node level-0 slot, and the overflow heap has
  /// nothing at this tick. Returns the number of events executed (stops
  /// early, re-homing unrun entries, when `*stop` flips).
  std::uint64_t RunSlotBatch(const bool* stop);

  Tick now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t live_count_ = 0;

  // Level 0: flat one-tick slots with a two-level occupancy bitmap
  // (occ0_sum_ bit s set <=> occ0_[s] != 0).
  std::vector<Slot> slots0_;  // kL0Slots entries
  std::uint64_t occ0_[kL0Words] = {};
  std::uint64_t occ0_sum_[kL0SumWords] = {};

  // Upper levels, indexed [k-1] for level k in 1..kUpperLevels.
  Slot upper_[kUpperLevels][kSlotsPerLevel];
  std::uint64_t occupied_[kUpperLevels] = {};

  std::vector<HeapEntry> heap_;   // overflow level, lazy-cancelled
  std::vector<BatchEntry> batch_; // same-tick run-buffer (RunSlotBatch)

  std::vector<std::unique_ptr<Node[]>> chunks_;
  std::uint32_t alloc_count_ = 0;
  std::uint32_t free_head_ = kNil;

  // One-shot action pool: chunked so slots never move, LIFO free stack.
  std::vector<std::unique_ptr<InlineAction[]>> action_chunks_;
  std::vector<InlineAction*> free_actions_;

  // Memoized earliest event, kept exact across ScheduleAt (monotonic seq
  // means a later-scheduled tie never displaces the cached minimum).
  bool cached_valid_ = false;
  bool cached_from_heap_ = false;
  Tick cached_at_ = kTickMax;
  std::uint64_t cached_seq_ = ~0ull;
  std::uint32_t cached_idx_ = kNil;

  // Conservative lower bound on the earliest event homed in the upper
  // levels or the overflow heap (kTickMax when provably empty). Place
  // lowers it on every upper/heap insert; full EnsureNext scans tighten it
  // back up. While the level-0 minimum is *strictly* below this bound, the
  // per-pop scan of six upper-level bitmaps and the heap stale-drop are
  // skipped entirely — in the datapath steady state (every event < 16.4 us
  // out) the bound stays far in the future and wheel-pop is pure L0
  // bitmap-ctz. Ties fall back to the full scan: an upper/heap event at
  // the same tick could carry a lower seq. Cascades and cancellations only
  // make the bound stale-low, which costs the fast path, never correctness.
  Tick upper_min_at_ = kTickMax;
};

}  // namespace dctcpp
