#include "dctcpp/sim/timer_wheel.h"

#include <algorithm>
#include <utility>

#include "dctcpp/util/profile.h"

namespace dctcpp {

namespace {

/// Bitmask with `count` bits set starting at bit `start`, wrapping at 64.
/// Precondition: 1 <= count <= 64.
std::uint64_t CircularMask(int start, std::uint64_t count) {
  const std::uint64_t ones =
      count >= 64 ? ~0ull : (std::uint64_t(1) << count) - 1;
  return std::rotl(ones, start);
}

}  // namespace

TimerWheelScheduler::TimerWheelScheduler() : slots0_(kL0Slots) {}

std::uint32_t TimerWheelScheduler::AllocNode() {
  if (free_head_ != kNil) {
    const std::uint32_t idx = free_head_;
    free_head_ = NodeAt(idx).next;
    return idx;
  }
  if (alloc_count_ == chunks_.size() * kChunkSize) {
    chunks_.push_back(std::make_unique<Node[]>(kChunkSize));
  }
  return alloc_count_++;
}

void TimerWheelScheduler::FreeNode(Node& n, std::uint32_t idx) {
  n.ctx = nullptr;
  ++n.gen;  // invalidates every EventId handed out for this slot so far
  n.loc = kLocFree;
  n.level = -1;
  n.slot = -1;
  n.next = free_head_;
  free_head_ = idx;
}

InlineAction* TimerWheelScheduler::AllocAction() {
  if (free_actions_.empty()) {
    action_chunks_.push_back(
        std::make_unique<InlineAction[]>(kActionChunkSize));
    InlineAction* const chunk = action_chunks_.back().get();
    // Reversed, so the chunk hands out its slots in address order.
    for (std::uint32_t i = kActionChunkSize; i > 0; --i) {
      free_actions_.push_back(chunk + (i - 1));
    }
  }
  InlineAction* const action = free_actions_.back();
  free_actions_.pop_back();
  return action;
}

void TimerWheelScheduler::FreeAction(InlineAction* action) {
  action->Reset();
  free_actions_.push_back(action);
}

void TimerWheelScheduler::Dispatch(PinnedFn pin_fn, void* ctx) {
  if (pin_fn != nullptr) {
    pin_fn(ctx);
    return;
  }
  InlineAction* const action = static_cast<InlineAction*>(ctx);
  (*action)();
  FreeAction(action);
}

void TimerWheelScheduler::SetL0Bit(int slot) {
  const int w = slot >> 6;
  occ0_[w] |= std::uint64_t(1) << (slot & 63);
  occ0_sum_[w >> 6] |= std::uint64_t(1) << (w & 63);
}

void TimerWheelScheduler::ClearL0Bit(int slot) {
  const int w = slot >> 6;
  if ((occ0_[w] &= ~(std::uint64_t(1) << (slot & 63))) == 0) {
    occ0_sum_[w >> 6] &= ~(std::uint64_t(1) << (w & 63));
  }
}

int TimerWheelScheduler::FindL0From(int pos) const {
  const int w = pos >> 6;
  const std::uint64_t first = occ0_[w] & (~std::uint64_t(0) << (pos & 63));
  if (first != 0) return (w << 6) | std::countr_zero(first);
  // Words strictly after `w` within the same summary word. The double
  // shift sidesteps the undefined shift-by-64 when (w & 63) == 63.
  const int sw = w >> 6;
  const std::uint64_t same = (occ0_sum_[sw] >> (w & 63)) >> 1;
  if (same != 0) {
    const int wi = w + 1 + std::countr_zero(same);
    return (wi << 6) | std::countr_zero(occ0_[wi]);
  }
  // Remaining summary words in circular order. The final iteration
  // revisits `sw` unmasked: any set bit there now indexes a word <= w
  // (later ones were ruled out above), which is exactly the wrap case.
  for (int j = 1; j <= kL0SumWords; ++j) {
    const int si = (sw + j) & (kL0SumWords - 1);
    const std::uint64_t s = occ0_sum_[si];
    if (s != 0) {
      const int wi = (si << 6) | std::countr_zero(s);
      return (wi << 6) | std::countr_zero(occ0_[wi]);
    }
  }
  return -1;
}

void TimerWheelScheduler::LinkSorted(int level, int slot, std::uint32_t idx,
                                     Node& n) {
  n.loc = kLocWheel;
  n.level = static_cast<std::int8_t>(level);
  n.slot = static_cast<std::int16_t>(slot);
  Slot& s = level == 0 ? slots0_[slot] : upper_[level - 1][slot];
  std::uint32_t& head = s.head;
  std::uint32_t& tail = s.tail;
  if (head == kNil) {
    head = tail = idx;
    n.prev = n.next = kNil;
    if (level == 0) {
      SetL0Bit(slot);
    } else {
      occupied_[level - 1] |= std::uint64_t(1) << slot;
    }
    return;
  }
  // Fresh schedules carry the highest seq so far and append in O(1); only
  // cascaded re-homes (older seqs) walk backwards to their sorted position.
  std::uint32_t after = tail;
  while (after != kNil && NodeAt(after).seq > n.seq) after = NodeAt(after).prev;
  if (after == kNil) {
    n.prev = kNil;
    n.next = head;
    NodeAt(head).prev = idx;
    head = idx;
  } else {
    Node& a = NodeAt(after);
    n.prev = after;
    n.next = a.next;
    if (a.next != kNil) {
      NodeAt(a.next).prev = idx;
    } else {
      tail = idx;
    }
    a.next = idx;
  }
}

void TimerWheelScheduler::Unlink(std::uint32_t idx, Node& n) {
  DCTCPP_DASSERT(n.loc == kLocWheel);
  const int level = n.level;
  const int slot = n.slot;
  Slot& s = level == 0 ? slots0_[slot] : upper_[level - 1][slot];
  std::uint32_t& head = s.head;
  std::uint32_t& tail = s.tail;
  if (n.prev != kNil) {
    NodeAt(n.prev).next = n.next;
  } else {
    head = n.next;
  }
  if (n.next != kNil) {
    NodeAt(n.next).prev = n.prev;
  } else {
    tail = n.prev;
  }
  if (head == kNil) {
    if (level == 0) {
      ClearL0Bit(slot);
    } else {
      occupied_[level - 1] &= ~(std::uint64_t(1) << slot);
    }
  }
  (void)idx;
}

void TimerWheelScheduler::Place(std::uint32_t idx, Node& n) {
  const Tick delta = n.at - now_;
  DCTCPP_DASSERT(delta >= 0);
  if (delta < kL0Slots) {
    // The common case: every per-packet datapath event (serialization,
    // propagation, inline wakeups) lands here and never cascades.
    LinkSorted(0, static_cast<int>(n.at & (kL0Slots - 1)), idx, n);
    return;
  }
  if (n.at < upper_min_at_) upper_min_at_ = n.at;
  if (delta >= kWheelSpan) {
    n.loc = kLocHeap;
    n.level = -1;
    n.slot = -1;
    heap_.push_back(HeapEntry{n.at, n.seq, idx, n.gen});
    std::push_heap(heap_.begin(), heap_.end(), HeapLater{});
    return;
  }
  const int ub = std::bit_width(static_cast<std::uint64_t>(delta)) - 1;
  const int level = (ub - kL0Bits) / kLevelBits + 1;
  const int slot =
      static_cast<int>((n.at >> UpperShift(level)) & (kSlotsPerLevel - 1));
  LinkSorted(level, slot, idx, n);
}

EventId TimerWheelScheduler::ScheduleAt(Tick at, Action action) {
  DCTCPP_ASSERT(static_cast<bool>(action));
  DCTCPP_ASSERT(at >= now_);
  const std::uint32_t idx = AllocNode();
  Node& n = NodeAt(idx);
  n.at = at;
  n.seq = next_seq_++;
  InlineAction* const slot = AllocAction();
  *slot = std::move(action);
  n.ctx = slot;
  Place(idx, n);
  ++live_count_;
  if (cached_valid_ && at < cached_at_) {
    // Strictly earlier than the cached minimum: it is the new minimum.
    // (A tie keeps the cached event — its seq is necessarily lower.)
    cached_at_ = at;
    cached_seq_ = n.seq;
    cached_idx_ = idx;
    cached_from_heap_ = (n.loc == kLocHeap);
  }
  return EventId{(static_cast<std::uint64_t>(n.gen) << 32) | (idx + 1)};
}

void TimerWheelScheduler::Cancel(EventId id) {
  if (!id.valid()) return;
  const std::uint32_t idx =
      static_cast<std::uint32_t>(id.value & 0xffffffffu) - 1;
  if (idx >= alloc_count_) return;
  Node& n = NodeAt(idx);
  if (n.gen != static_cast<std::uint32_t>(id.value >> 32)) return;  // stale
  if (n.loc == kLocFree) return;
  if (n.loc == kLocWheel) {
    Unlink(idx, n);
  }
  // Heap-resident events leave a stale HeapEntry behind; the generation
  // bump in FreeNode makes it unrecognizable and it is dropped on pop.
  if (cached_valid_ && cached_idx_ == idx) cached_valid_ = false;
  FreeAction(static_cast<InlineAction*>(n.ctx));
  FreeNode(n, idx);
  --live_count_;
}

std::uint32_t TimerWheelScheduler::CreatePinned(PinnedFn fn, void* ctx) {
  DCTCPP_ASSERT(fn != nullptr);
  const std::uint32_t idx = AllocNode();
  Node& n = NodeAt(idx);
  n.pin_fn = fn;
  n.ctx = ctx;
  n.loc = kLocParked;
  return idx;
}

void TimerWheelScheduler::DestroyPinned(std::uint32_t idx) {
  Node& n = NodeAt(idx);
  DCTCPP_DASSERT(n.pin_fn != nullptr);
  CancelPinned(idx);
  n.pin_fn = nullptr;
  FreeNode(n, idx);
}

void TimerWheelScheduler::ArmPinnedAt(std::uint32_t idx, Tick at) {
  DCTCPP_ASSERT(at >= now_);
  Node& n = NodeAt(idx);
  DCTCPP_DASSERT(n.pin_fn != nullptr);
  if (n.loc != kLocParked) CancelPinned(idx);
  n.at = at;
  n.seq = next_seq_++;
  Place(idx, n);
  ++live_count_;
  if (cached_valid_ && at < cached_at_) {
    cached_at_ = at;
    cached_seq_ = n.seq;
    cached_idx_ = idx;
    cached_from_heap_ = (n.loc == kLocHeap);
  }
}

void TimerWheelScheduler::CancelPinned(std::uint32_t idx) {
  Node& n = NodeAt(idx);
  DCTCPP_DASSERT(n.pin_fn != nullptr);
  if (n.loc == kLocParked) return;
  if (n.loc == kLocWheel) {
    Unlink(idx, n);
  } else if (n.loc != kLocBatch) {  // batch entries revalidate on dispatch
    DCTCPP_DASSERT(n.loc == kLocHeap);
    ++n.gen;  // stale-ifies the HeapEntry left behind; dropped on pop
  }
  n.loc = kLocParked;
  if (cached_valid_ && cached_idx_ == idx) cached_valid_ = false;
  --live_count_;
}

void TimerWheelScheduler::AdvanceCascade(Tick t) {
  // Level 0 needs no work when time advances: t is never past a pending
  // event, so every one-tick slot in [now_, t) is already empty and its
  // occupancy bits were cleared as the events popped.
  //
  // Dumped upper slot lists are appended to the todo chain in forward
  // order so each stays ascending-seq; re-Place then hits LinkSorted's
  // O(1) tail-append fast path instead of walking the target slot (a
  // reversed chain would make a cascade of m same-slot events cost
  // O(m^2)).
  std::uint32_t todo_head = kNil;
  std::uint32_t todo_tail = kNil;
  for (int k = 1; k <= kUpperLevels; ++k) {
    const int shift = UpperShift(k);
    const std::uint64_t oldp = static_cast<std::uint64_t>(now_) >> shift;
    const std::uint64_t newp = static_cast<std::uint64_t>(t) >> shift;
    if (oldp == newp) break;  // no boundary crossed here nor above
    if (occupied_[k - 1] != 0) {
      // Slots (oldp, newp] were entered or passed: cascade their events.
      const std::uint64_t mask =
          CircularMask(static_cast<int>((oldp + 1) & (kSlotsPerLevel - 1)),
                       std::min<std::uint64_t>(newp - oldp, kSlotsPerLevel));
      std::uint64_t dump = occupied_[k - 1] & mask;
      occupied_[k - 1] &= ~mask;
      while (dump != 0) {
        const int slot = std::countr_zero(dump);
        dump &= dump - 1;
        Slot& s = upper_[k - 1][slot];
        const std::uint32_t first = s.head;
        const std::uint32_t last = s.tail;
        s.head = s.tail = kNil;
        if (first == kNil) continue;
        if (todo_tail == kNil) {
          todo_head = first;
        } else {
          NodeAt(todo_tail).next = first;
        }
        todo_tail = last;
      }
    }
  }
  now_ = t;
  while (todo_head != kNil) {
    const std::uint32_t idx = todo_head;
    Node& n = NodeAt(idx);
    todo_head = n.next;
    Place(idx, n);
  }
}

void TimerWheelScheduler::EnsureNext() {
  if (cached_valid_) return;
  DCTCPP_PROFILE_SCOPE(kWheelPop);
  cached_valid_ = true;
  cached_from_heap_ = false;
  cached_at_ = kTickMax;
  cached_seq_ = ~0ull;
  cached_idx_ = kNil;

  const int pos0 = static_cast<int>(now_ & (kL0Slots - 1));
  const int slot0 = FindL0From(pos0);
  if (slot0 >= 0) {
    // Level-0 slots hold exactly one timestamp each, so the first occupied
    // slot circularly from the wheel position is the exact minimum (its
    // list head has the lowest seq: lists are seq-sorted).
    const std::uint32_t h = slots0_[slot0].head;
    cached_at_ = now_ + ((slot0 - pos0) & (kL0Slots - 1));
    cached_seq_ = NodeAt(h).seq;
    cached_idx_ = h;
    // Steady-state fast path: every upper-level and heap event is bounded
    // below by upper_min_at_, so a strictly earlier level-0 minimum is the
    // global minimum and the six upper bitmap probes plus the heap
    // stale-drop are skipped. Ties must full-scan (lower seq possible).
    if (cached_at_ < upper_min_at_) return;
  }
  // Full scan; tightens upper_min_at_ back to the exact lower bound (the
  // min of each level's first-occupied-slot base and the live heap top).
  Tick upper_min = kTickMax;
  for (int k = 1; k <= kUpperLevels; ++k) {
    if (occupied_[k - 1] == 0) continue;
    const int shift = UpperShift(k);
    const Tick width = Tick(1) << shift;
    const Tick lap = width << kLevelBits;
    const int posk = static_cast<int>((now_ >> shift) & (kSlotsPerLevel - 1));
    // The current-position slot is always empty at k >= 1, so circular
    // order from posk+1 lists slots by increasing base time; the first
    // occupied one bounds every other slot at this level from below.
    const int start = (posk + 1) & (kSlotsPerLevel - 1);
    const int off = std::countr_zero(std::rotr(occupied_[k - 1], start));
    const int slot = (start + off) & (kSlotsPerLevel - 1);
    Tick base = (now_ & ~(lap - 1)) + Tick(slot) * width;
    if (base <= now_) base += lap;  // passed/current slot index: next lap
    if (base < upper_min) upper_min = base;
    if (base > cached_at_) continue;  // cannot beat or tie the minimum
    for (std::uint32_t i = upper_[k - 1][slot].head; i != kNil;
         i = NodeAt(i).next) {
      const Node& n = NodeAt(i);
      if (n.at < cached_at_ || (n.at == cached_at_ && n.seq < cached_seq_)) {
        cached_at_ = n.at;
        cached_seq_ = n.seq;
        cached_idx_ = i;
      }
    }
  }
  // Overflow heap: drop entries orphaned by Cancel, then compare the top.
  while (!heap_.empty()) {
    const HeapEntry& top = heap_.front();
    const Node& n = NodeAt(top.idx);
    if (n.loc == kLocHeap && n.gen == top.gen) break;
    std::pop_heap(heap_.begin(), heap_.end(), HeapLater{});
    heap_.pop_back();
  }
  if (!heap_.empty()) {
    const HeapEntry& top = heap_.front();
    if (top.at < upper_min) upper_min = top.at;
    if (top.at < cached_at_ ||
        (top.at == cached_at_ && top.seq < cached_seq_)) {
      cached_at_ = top.at;
      cached_seq_ = top.seq;
      cached_idx_ = top.idx;
      cached_from_heap_ = true;
    }
  }
  upper_min_at_ = upper_min;
}

Tick TimerWheelScheduler::NextTime() {
  EnsureNext();
  return cached_at_;
}

Tick TimerWheelScheduler::RunNext() {
  Tick t;
  PinnedFn pin_fn;
  void* ctx;
  {
    // Pop machinery only; dispatch happens outside the scope so callback
    // cycles land in their own phases (demux/socket/enqueue) or kOther.
    DCTCPP_PROFILE_SCOPE(kWheelPop);
    EnsureNext();
    DCTCPP_ASSERT(live_count_ > 0);
    t = cached_at_;
    const std::uint32_t idx = cached_idx_;
    const bool from_heap = cached_from_heap_;
    AdvanceTo(t);
    Node& n = NodeAt(idx);
    std::int16_t slot = -1;
    if (from_heap) {
      DCTCPP_DASSERT(!heap_.empty() && heap_.front().idx == idx);
      std::pop_heap(heap_.begin(), heap_.end(), HeapLater{});
      heap_.pop_back();
    } else {
      // AdvanceTo(t) cascaded every wheel event at tick t into the level-0
      // slot t & mask (the entered upper slot is part of the dump mask),
      // where the list is seq-sorted — so the cached minimum is the slot
      // head and pops without the general Unlink.
      DCTCPP_DASSERT(n.level == 0 && n.prev == kNil);
      slot = n.slot;
      Slot& s = slots0_[slot];
      s.head = n.next;
      if (n.next != kNil) {
        NodeAt(n.next).prev = kNil;
      } else {
        s.tail = kNil;
        ClearL0Bit(slot);
      }
    }
    // Pinned nodes just park (their callback is a bare fn+ctx pair, loaded
    // here before dispatch). One-shot nodes recycle *before* their action
    // runs, so the callback may freely schedule (and even land on this
    // node's id with a fresh generation); the action slot itself stays
    // held until Dispatch has run it.
    pin_fn = n.pin_fn;
    ctx = n.ctx;
    if (pin_fn != nullptr) {
      n.loc = kLocParked;
    } else {
      FreeNode(n, idx);
    }
    --live_count_;
    ++executed_;
    cached_valid_ = false;
    // Same-tick fast path: a level-0 slot holds exactly one timestamp, so a
    // non-empty slot after the pop means its head (lowest remaining seq) is
    // the next event — unless the overflow heap could hold an older event at
    // this same tick, in which case fall back to the full scan. Callbacks
    // can only add same-tick events with higher seqs, so the cache stays
    // exact through whatever `action` schedules.
    if (!from_heap && slots0_[slot].head != kNil &&
        (heap_.empty() || heap_.front().at > t)) {
      cached_valid_ = true;
      cached_at_ = t;
      cached_seq_ = NodeAt(slots0_[slot].head).seq;
      cached_idx_ = slots0_[slot].head;
      cached_from_heap_ = false;
    }
  }
  Dispatch(pin_fn, ctx);  // may re-arm (or destroy) a pinned node
  return t;
}

std::uint64_t TimerWheelScheduler::RunSlotBatch(const bool* stop) {
  const Tick t = cached_at_;
  {
    DCTCPP_PROFILE_SCOPE(kWheelPop);
    AdvanceTo(t);
    // Unlink the whole seq-sorted chain into the run-buffer with one slot
    // store and one bitmap clear; the nodes themselves are revalidated at
    // dispatch so mid-batch cancellations and pinned re-arms stay exact.
    const int slot = static_cast<int>(t & (kL0Slots - 1));
    Slot& s = slots0_[slot];
    batch_.clear();
    for (std::uint32_t i = s.head; i != kNil;) {
      Node& n = NodeAt(i);
      DCTCPP_DASSERT(n.at == t);
      n.loc = kLocBatch;
      batch_.push_back(BatchEntry{n.seq, i});
      i = n.next;
    }
    s.head = s.tail = kNil;
    ClearL0Bit(slot);
    cached_valid_ = false;
  }
  std::uint64_t ran = 0;
  for (std::size_t b = 0; b < batch_.size(); ++b) {
    if (*stop) {
      // Mirror RunLoop's per-event stop semantics: entries from b on have
      // not run, so they go back on the wheel (keeping their seqs — any
      // same-tick events the callbacks added carry higher seqs and sort
      // after them, exactly as with pop-per-event).
      for (std::size_t r = b; r < batch_.size(); ++r) {
        Node& n = NodeAt(batch_[r].idx);
        if (n.loc == kLocBatch && n.seq == batch_[r].seq) {
          Place(batch_[r].idx, n);
        }
      }
      break;
    }
    // Two-stage software pipeline over the burst: pull the node two ahead
    // into cache (the address computation is just a chunk-pointer load, no
    // dependent dereference), and the *context object* one ahead — by then
    // that node's line is resident, so reading ctx doesn't stall. The
    // contexts are the sockets and timers about to run (or a one-shot's
    // action slot); their first line is exactly what dispatch touches
    // first.
    if (b + 2 < batch_.size()) {
      __builtin_prefetch(&NodeAt(batch_[b + 2].idx), 0, 3);
    }
    if (b + 1 < batch_.size()) {
      void* const next_ctx = NodeAt(batch_[b + 1].idx).ctx;
      if (next_ctx != nullptr) __builtin_prefetch(next_ctx, 0, 3);
    }
    const BatchEntry e = batch_[b];
    Node& n = NodeAt(e.idx);
    if (n.loc != kLocBatch || n.seq != e.seq) continue;  // cancelled mid-batch
    const PinnedFn pin_fn = n.pin_fn;
    void* const ctx = n.ctx;
    if (pin_fn != nullptr) {
      n.loc = kLocParked;
    } else {
      FreeNode(n, e.idx);
    }
    --live_count_;
    ++executed_;
    ++ran;
    Dispatch(pin_fn, ctx);
  }
  return ran;
}

void TimerWheelScheduler::RestoreClock(Tick t) {
  DCTCPP_ASSERT(live_count_ == 0);
  DCTCPP_ASSERT(batch_.empty());
  now_ = t;
  cached_valid_ = false;
}

EventId TimerWheelScheduler::ScheduleAtWithSeq(Tick at, Action action,
                                               std::uint64_t seq) {
  DCTCPP_ASSERT(static_cast<bool>(action));
  DCTCPP_ASSERT(at >= now_);
  const std::uint32_t idx = AllocNode();
  Node& n = NodeAt(idx);
  n.at = at;
  n.seq = seq;
  InlineAction* const slot = AllocAction();
  *slot = std::move(action);
  n.ctx = slot;
  Place(idx, n);
  ++live_count_;
  // Restored seqs are arbitrary relative to the cached minimum (a tie with
  // a lower seq would make the memo wrong), so drop the memo entirely.
  cached_valid_ = false;
  return EventId{(static_cast<std::uint64_t>(n.gen) << 32) | (idx + 1)};
}

void TimerWheelScheduler::ArmPinnedAtWithSeq(std::uint32_t idx, Tick at,
                                             std::uint64_t seq) {
  DCTCPP_ASSERT(at >= now_);
  Node& n = NodeAt(idx);
  DCTCPP_DASSERT(n.pin_fn != nullptr);
  if (n.loc != kLocParked) CancelPinned(idx);
  n.at = at;
  n.seq = seq;
  Place(idx, n);
  ++live_count_;
  cached_valid_ = false;
}

std::uint64_t TimerWheelScheduler::RunLoop(Tick deadline, const bool* stop,
                                           Tick* sim_now) {
  std::uint64_t count = 0;
  while (!*stop && live_count_ != 0) {
    EnsureNext();
    if (cached_at_ > deadline) break;
    *sim_now = cached_at_;
    if (!cached_from_heap_) {
      const Node& n = NodeAt(cached_idx_);
      if (n.level == 0 && n.next != kNil &&
          (heap_.empty() || heap_.front().at > cached_at_)) {
        // Multi-event same-tick slot with nothing older in the overflow
        // heap: drain it whole. (A heap event at this tick could interleave
        // by seq, so that rare case keeps the pop-per-event path.)
        count += RunSlotBatch(stop);
        continue;
      }
    }
    RunNext();  // same-TU: inlines, and its EnsureNext re-check is cached
    ++count;
  }
  return count;
}

std::size_t TimerWheelScheduler::OverflowCount() const {
  std::size_t live = 0;
  for (const HeapEntry& e : heap_) {
    const Node& n = NodeAt(e.idx);
    if (n.loc == kLocHeap && n.gen == e.gen) ++live;
  }
  return live;
}

}  // namespace dctcpp
