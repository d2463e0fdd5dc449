#include "dctcpp/net/parallel.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "dctcpp/sim/checkpoint.h"
#include "dctcpp/util/assert.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace dctcpp {

namespace {

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Escalating wait for gang spins: cheap pauses while the window is
/// likely mid-flight, a bounded stretch of yields once the wait spans a
/// scheduling quantum, then short sleeps doubling 16 us -> 256 us so an
/// oversubscribed gang (more helpers than cores) parks its idle helpers
/// instead of burning a core each. Helpers in the sleep stage cost up to
/// one sleep period of dispatch latency — acceptable exactly when waits
/// are this long (sparse single-shard phases, or no spare core anyway).
inline void SpinWait(int iteration) {
  if (iteration < 256) {
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#else
    std::this_thread::yield();
#endif
  } else if (iteration < 4096) {
    std::this_thread::yield();
  } else {
    const int stage = std::min(4, (iteration - 4096) >> 10);
    std::this_thread::sleep_for(std::chrono::microseconds(16 << stage));
  }
}

}  // namespace

// --- ArrivalCalendar ------------------------------------------------------

void ArrivalCalendar::DeliverEarliest() {
  DCTCPP_DASSERT(!heap_.empty());
  const Head top = heap_[0];
  Tick at = 0;
  std::uint64_t key = 0;
  // The delivery may arm other streams, but each lands at least one link
  // delay later, strictly behind this head: the stream stays at the root.
  const bool more = top.stream->DeliverHead(&at, &key);
  DCTCPP_DASSERT(heap_[0].stream == top.stream);
  if (more) {
    DCTCPP_DASSERT(Before(top, Head{at, key, top.stream}));
    heap_[0].at = at;
    heap_[0].key = key;
  } else {
    heap_[0] = heap_.back();
    heap_.pop_back();
    if (heap_.empty()) return;
  }
  SiftDown(0);
}

void ArrivalCalendar::SiftUp(std::size_t i) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!Before(heap_[i], heap_[parent])) return;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void ArrivalCalendar::SiftDown(std::size_t i) {
  // Floyd's variant: a re-filed head is usually later than most others,
  // so walk the hole to a leaf along the earlier children (one compare per
  // level) and then sift the head back up the few levels it belongs.
  const std::size_t n = heap_.size();
  const Head moving = heap_[i];
  std::size_t hole = i;
  for (std::size_t child = 2 * hole + 1; child < n; child = 2 * hole + 1) {
    if (child + 1 < n && Before(heap_[child + 1], heap_[child])) ++child;
    heap_[hole] = heap_[child];
    hole = child;
  }
  while (hole > i) {
    const std::size_t parent = (hole - 1) / 2;
    if (!Before(moving, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = moving;
}

// --- InboundRing --------------------------------------------------------

void InboundRing::Append(Tick at, std::uint64_t key, const Packet& pkt) {
  if (ring_.Empty()) {
    calendar_.Arm(at, key, this);
  } else {
    DCTCPP_DASSERT(key > ring_.Back().key);
    at = std::max(at, ring_.Back().at);
  }
  ring_.PushBack(Entry{at, key, pkt});
}

bool InboundRing::DeliverHead(Tick* at, std::uint64_t* key) {
  // Rings grow only at the barrier merge, never during a window, so the
  // front slot stays put while the sink runs.
  sink_.Deliver(ring_.Front().pkt);
  ring_.PopFront();
  if (ring_.Empty()) return false;
  *at = ring_.Front().at;
  *key = ring_.Front().key;
  return true;
}

// --- WindowGang -----------------------------------------------------------

WindowGang::WindowGang(ThreadPool& pool, int helpers, Task task)
    : state_(std::make_shared<State>()), task_(std::move(task)) {
  for (int h = 0; h < helpers; ++h) {
    // Helpers capture only the shared state and a copy of the task: once
    // `exit` is raised they return without touching either again, so the
    // gang (and whatever the task references) may die while a helper is
    // still draining out of its spin loop.
    pool.Post([state = state_, task = task_] {
      std::uint64_t seen = 0;
      for (int spin = 0;; ++spin) {
        const std::uint64_t v = state->seq.load(std::memory_order_acquire);
        if (v == seen) {
          SpinWait(spin);
          continue;
        }
        if (state->exit.load(std::memory_order_acquire)) return;
        seen = v;
        spin = 0;
        ClaimLoop(*state, v, task);
      }
    });
  }
}

WindowGang::~WindowGang() {
  state_->exit.store(true, std::memory_order_release);
  state_->seq.fetch_add(1, std::memory_order_release);
}

void WindowGang::ClaimLoop(State& s, std::uint64_t my_seq, const Task& task) {
  for (;;) {
    std::uint64_t c = s.claim.load(std::memory_order_relaxed);
    if ((c >> 32) != my_seq) return;  // stale window: nothing left for us
    const auto t = static_cast<std::uint32_t>(c & 0xffffffffu);
    // Bounds-check against *this window's* count slot: a helper parked on
    // the terminal claim (my_seq, n) while the caller starts the next
    // window must keep seeing n here, not the next window's count, or it
    // could claim a dead slot below before the new epoch is published.
    if (static_cast<int>(t) >=
        s.count[my_seq & 1].load(std::memory_order_relaxed)) {
      return;
    }
    // CAS (not fetch_add) so a laggard from the previous window can never
    // consume a slot of this one: its epoch check above fails before it
    // ever modifies the counter.
    if (!s.claim.compare_exchange_weak(c, c + 1, std::memory_order_relaxed,
                                       std::memory_order_relaxed)) {
      continue;
    }
    task(static_cast<int>(t));
    s.done.fetch_add(1, std::memory_order_release);
  }
}

void WindowGang::Run(int n) {
  DCTCPP_DASSERT(n >= 0);
  if (n == 0) return;
  State& s = *state_;
  const std::uint64_t seq = ++next_seq_;
  s.count[seq & 1].store(n, std::memory_order_relaxed);
  s.done.store(0, std::memory_order_relaxed);
  s.claim.store(seq << 32, std::memory_order_relaxed);
  s.seq.store(seq, std::memory_order_release);
  ClaimLoop(s, seq, task_);
  // Gather: every claimed task reports exactly once; acquire pairs with
  // the workers' release so their shard writes are visible afterwards.
  for (int spin = 0;
       s.done.load(std::memory_order_acquire) != static_cast<std::uint32_t>(n);
       ++spin) {
    SpinWait(spin);
  }
}

// --- ParallelSimulation ---------------------------------------------------

ParallelSimulation::ParallelSimulation(std::uint64_t seed, int shards)
    : seed_(seed) {
  DCTCPP_ASSERT(shards >= 1);
  const auto s = static_cast<std::size_t>(shards);
  shards_.reserve(s);
  for (int i = 0; i < shards; ++i) {
    auto sh = std::make_unique<Shard>(seed);
    sh->sim.BindShard(this, i, &sequences_, &stop_);
    shards_.push_back(std::move(sh));
  }
  channel_min_.assign(s * s, kTickMax);
}

void ParallelSimulation::ObserveChannel(int src, int dst,
                                        Tick propagation_delay) {
  DCTCPP_ASSERT(propagation_delay > 0);
  DCTCPP_DASSERT(src >= 0 && src < shard_count());
  DCTCPP_DASSERT(dst >= 0 && dst < shard_count());
  if (src == dst) {
    // Intra-shard channel: bounds how deep the shard's own wheel may run
    // before re-reading its calendar (see RunShardWindow), but plays no
    // part in W.
    Shard& sh = *shards_[static_cast<std::size_t>(src)];
    sh.self_delay = std::min(sh.self_delay, propagation_delay);
    return;
  }
  Tick& slot = channel_min_[static_cast<std::size_t>(src) *
                                static_cast<std::size_t>(shard_count()) +
                            static_cast<std::size_t>(dst)];
  slot = std::min(slot, propagation_delay);
}

void ParallelSimulation::Handoff(int src, InboundRing& ring, Tick at,
                                 std::uint64_t key, const Packet& pkt) {
  DCTCPP_DASSERT(src >= 0 && src < shard_count());
  DCTCPP_DASSERT(src != ring.shard());
  Shard& source = *shards_[static_cast<std::size_t>(src)];
  if (!channel_allowed_.empty() &&
      channel_allowed_[static_cast<std::size_t>(src) *
                           static_cast<std::size_t>(shard_count()) +
                       static_cast<std::size_t>(ring.shard())] == 0) {
    // A packet on a pruned channel means the RestrictChannels mask was
    // wrong — count it (folded into invariant_violations) but still
    // deliver the packet; the merge-horizon check reports any actual
    // causality damage.
    ++source.pruned_handoffs;
  }
  source.staging.Append(at, key, &ring, pkt);
  ++source.cross_deposits;
}

InboundRing& ParallelSimulation::AddInboundRing(PacketSink& sink,
                                                int dst_shard) {
  Shard& dst = *shards_[static_cast<std::size_t>(dst_shard)];
  dst.inbound.push_back(
      std::make_unique<InboundRing>(sink, dst_shard, dst.calendar));
  return *dst.inbound.back();
}

void ParallelSimulation::RestrictChannels(std::vector<std::uint8_t> allowed) {
  const auto s = static_cast<std::size_t>(shard_count());
  DCTCPP_ASSERT(allowed.size() == s * s);
  channel_allowed_ = std::move(allowed);
}

Tick ParallelSimulation::WindowWidth() const {
  // Pruned channels carry no traffic (RestrictChannels' verified promise),
  // so they bound nothing: masking them is what turns a good partition
  // into wider windows, up to one window per RunUntil.
  const auto s = static_cast<std::size_t>(shard_count());
  Tick w = kTickMax;
  for (std::size_t i = 0; i < s * s; ++i) {
    if (!channel_allowed_.empty() && channel_allowed_[i] == 0) continue;
    w = std::min(w, channel_min_[i]);
  }
  return w;
}

std::uint64_t ParallelSimulation::pruned_channel_handoffs() const {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->pruned_handoffs;
  return total;
}

void ParallelSimulation::RunShardWindow(int idx, Tick end) {
  Shard& sh = *shards_[static_cast<std::size_t>(idx)];
  Simulator& sim = sh.sim;
  const double start = WallSeconds();
  for (;;) {
    const Tick tc = sh.calendar.NextTime();
    const Tick tw = sim.scheduler().NextTime();
    if (std::min(tc, tw) >= end) break;
    if (tc <= tw) {
      // All arrivals due at tick tc deliver before any wheel event at tc,
      // in (at, key) order — the canonical tie-break shared by every
      // shard count. Deliveries may schedule wheel work at tc (handled
      // next iteration, after the batch); handoffs they trigger land at
      // least one link delay later, never inside the batch.
      sim.SetNow(tc);
      do {
        sh.calendar.DeliverEarliest();
        ++sh.delivered;
      } while (sh.calendar.NextTime() == tc);
    } else {
      // Wheel events up to the intra-shard lookahead horizon: an event at
      // u >= tw may arm this shard's own calendar with an arrival due
      // u + self_delay at the earliest, so every wheel tick before
      // tw + self_delay is safe to run blind — but no further, because W
      // only bounds cross-shard links: an intra-shard link may be faster,
      // and at S = 1 or under full pruning the window is unbounded.
      sim.RunWindow(std::min({tc, end, SatAddTick(tw, sh.self_delay)}));
    }
  }
  sh.busy_s += WallSeconds() - start;
}

void ParallelSimulation::MergeStaging() {
  for (auto& src : shards_) {
    const double start = WallSeconds();
    OutboxStaging& st = src->staging;
    const std::size_t n = st.Size();
    for (std::size_t i = 0; i < n; ++i) {
      InboundRing& ring = *st.ring[i];
      const Shard& dst = *shards_[static_cast<std::size_t>(ring.shard())];
      // Always-on causality check: a deposit due before the horizon its
      // destination already ran to would have been delivered in the past.
      // Window safety (DESIGN.md Sec. 10) proves this cannot happen for a
      // correct channel map; a wrong RestrictChannels mask can make it
      // happen. Either way the run is flagged, and the arrival is clamped
      // to the destination's horizon so it degrades (late delivery) rather
      // than aborting on the scheduler's time-monotonicity assert.
      Tick at = st.at[i];
      if (at < dst.ran_to) {
        ++merge_causality_violations_;
        at = dst.ran_to;
      }
      ring.Append(at, st.key[i], st.pkt[i]);
    }
    st.Clear();
    src->merge_s += WallSeconds() - start;
  }
}

std::uint64_t ParallelSimulation::RunUntil(Tick deadline, ThreadPool* pool) {
  DCTCPP_ASSERT(deadline >= 0);
  const Tick dp1 = SatAddTick(deadline, 1);
  const Tick width = WindowWidth();
  const int s = shard_count();
  const int helpers =
      pool != nullptr
          ? static_cast<int>(std::min<std::size_t>(
                pool->size(), static_cast<std::size_t>(s - 1)))
          : 0;
  std::unique_ptr<WindowGang> gang;
  if (helpers > 0) {
    gang = std::make_unique<WindowGang>(*pool, helpers, [this](int t) {
      RunShardWindow(active_[static_cast<std::size_t>(t)], window_end_);
    });
  }
  const std::uint64_t rounds_before = sync_rounds_;
  std::vector<Tick> next(static_cast<std::size_t>(s));
  // Ports hand off at admission, so a packet sent between runs (from the
  // caller's thread) may sit in a staging buffer; merge it before `gn`
  // is read.
  MergeStaging();

  // Note the stop flag never breaks this loop: a shard's Stop() only marks
  // the run stopped, and windows keep going until the world drains (gn
  // reaching dp1). Shards overshoot a mid-window stop by
  // partition-dependent amounts, so cutting execution off at the stopping
  // window would make the executed event set — and every counter derived
  // from it — depend on the shard count. Running to quiescence makes it
  // "every reachable event", identical for all partitions.
  for (;;) {
    Tick gn = kTickMax;
    for (int i = 0; i < s; ++i) {
      next[static_cast<std::size_t>(i)] =
          ShardNext(*shards_[static_cast<std::size_t>(i)]);
      gn = std::min(gn, next[static_cast<std::size_t>(i)]);
    }
    if (gn >= dp1) break;
    window_end_ = std::min(SatAddTick(gn, width), dp1);
    active_.clear();
    for (int i = 0; i < s; ++i) {
      Shard& sh = *shards_[static_cast<std::size_t>(i)];
      sh.ran_to = std::max(sh.ran_to, window_end_);
      if (next[static_cast<std::size_t>(i)] < window_end_) {
        active_.push_back(i);
      }
    }
    ++sync_rounds_;
    const double window_start = WallSeconds();
    if (gang != nullptr && active_.size() > 1) {
      gang->Run(static_cast<int>(active_.size()));
    } else {
      for (const int idx : active_) RunShardWindow(idx, window_end_);
    }
    window_s_ += WallSeconds() - window_start;
    MergeStaging();
  }
  stopped_ = stop_.load(std::memory_order_acquire);

  if (!stopped_ && deadline != kTickMax) {
    // Mirror Simulator::RunUntil: a drained/deadline-bounded run leaves
    // every clock at the deadline.
    for (auto& sh : shards_) {
      if (sh->sim.Now() < deadline) sh->sim.SetNow(deadline);
    }
  }
  return sync_rounds_ - rounds_before;
}

std::uint64_t ParallelSimulation::events_executed() const {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) {
    total += sh->sim.events_executed() + sh->delivered;
  }
  return total;
}

std::uint64_t ParallelSimulation::packets_forwarded() const {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->sim.packets_forwarded();
  return total;
}

std::size_t ParallelSimulation::CalendarBytes() const {
  std::size_t total = 0;
  for (const auto& sh : shards_) {
    total += sh->calendar.bytes() +
             sh->inbound.capacity() * sizeof(std::unique_ptr<InboundRing>);
    for (const auto& ring : sh->inbound) {
      total += sizeof(InboundRing) + ring->bytes();
    }
  }
  return total;
}

ShardTimes ParallelSimulation::shard_times(int i) const {
  const Shard& sh = *shards_[static_cast<std::size_t>(i)];
  ShardTimes t;
  t.busy_s = sh.busy_s;
  t.wait_s = window_s_ - sh.busy_s;
  t.merge_s = sh.merge_s;
  return t;
}

std::uint64_t ParallelSimulation::calendar_deliveries() const {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->delivered;
  return total;
}

std::uint64_t ParallelSimulation::cross_shard_handoffs() const {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->cross_deposits;
  return total;
}

NetworkInvariants::Ledger ParallelSimulation::MergedLedger() const {
  NetworkInvariants::Ledger merged;
  for (const auto& sh : shards_) {
    const auto& l = sh->sim.invariants().ledger();
    merged.originated += l.originated;
    merged.duplicated += l.duplicated;
    merged.delivered += l.delivered;
    merged.dropped += l.dropped;
    merged.checksum_discards += l.checksum_discards;
  }
  return merged;
}

std::uint64_t ParallelSimulation::invariant_violations() const {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->sim.invariants().violations();
  if (!NetworkInvariants::LedgerConsistent(MergedLedger())) ++total;
  total += merge_causality_violations_;
  total += pruned_channel_handoffs();
  return total;
}

// --- checkpoint -----------------------------------------------------------

namespace {
constexpr std::uint32_t kTagParallel = 0x5053494d;  // "PSIM"
constexpr std::uint32_t kTagShard = 0x53485244;     // "SHRD"
}  // namespace

void InboundRing::SaveState(CheckpointWriter& w) const {
  w.U64(ring_.Size());
  ring_.ForEach([&w](const Entry& e) {
    w.I64(e.at);
    w.U64(e.key);
    SavePacket(w, e.pkt);
  });
}

void InboundRing::LoadState(CheckpointReader& r) {
  DCTCPP_ASSERT(ring_.Empty());
  const std::uint64_t n = r.U64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const Tick at = r.I64();
    const std::uint64_t key = r.U64();
    Append(at, key, LoadPacket(r));
  }
}

void ParallelSimulation::SaveCheckpoint(CheckpointWriter& w,
                                        const CheckpointHooks* hooks) const {
  w.Tag(kTagParallel);
  w.U64(seed_);
  w.U64(shards_.size());
  w.I64(WindowWidth());  // audit: rebuilt by topology construction
  w.Bool(stopped_);
  w.U64(sync_rounds_);
  w.U64(merge_causality_violations_);
  for (const auto& sh : shards_) {
    w.Tag(kTagShard);
    // Barrier precondition: staging buffers are drained at every window
    // merge; a non-empty one here means we are not at a RunUntil return.
    DCTCPP_ASSERT(sh->staging.Empty());
    sh->sim.SaveCheckpoint(w, hooks);
    w.U64(sh->delivered);
    w.U64(sh->cross_deposits);
    w.I64(sh->ran_to);
    w.I64(sh->self_delay);  // audit: rebuilt by topology construction
    w.U64(sh->pruned_handoffs);
    // Local ports saved their wires with the shard; the calendar heap is
    // rebuilt from the wires and rings on load, so only the rings remain.
    w.U64(sh->inbound.size());
    for (const auto& ring : sh->inbound) ring->SaveState(w);
  }
}

void ParallelSimulation::RestoreCheckpoint(CheckpointReader& r,
                                           CheckpointHooks* hooks) {
  r.ExpectTag(kTagParallel);
  const std::uint64_t saved_seed = r.U64();
  DCTCPP_ASSERT(saved_seed == seed_);
  const std::uint64_t saved_shards = r.U64();
  DCTCPP_ASSERT(saved_shards == shards_.size());
  const Tick saved_width = r.I64();
  DCTCPP_ASSERT(saved_width == WindowWidth());
  stopped_ = r.Bool();
  if (stopped_) stop_.store(true, std::memory_order_release);
  sync_rounds_ = r.U64();
  merge_causality_violations_ = r.U64();
  for (auto& sh : shards_) {
    r.ExpectTag(kTagShard);
    DCTCPP_ASSERT(sh->staging.Empty() && sh->calendar.Empty());
    sh->sim.RestoreCheckpoint(r, hooks);
    sh->delivered = r.U64();
    sh->cross_deposits = r.U64();
    sh->ran_to = r.I64();
    const Tick saved_self_delay = r.I64();
    DCTCPP_ASSERT(saved_self_delay == sh->self_delay);
    sh->pruned_handoffs = r.U64();
    DCTCPP_ASSERT(r.U64() == sh->inbound.size());
    for (auto& ring : sh->inbound) ring->LoadState(r);
  }
}

std::string ParallelSimulation::first_violation() const {
  for (const auto& sh : shards_) {
    if (!sh->sim.invariants().first_violation().empty()) {
      return sh->sim.invariants().first_violation();
    }
  }
  if (!NetworkInvariants::LedgerConsistent(MergedLedger())) {
    return "merged packet ledger inconsistent";
  }
  // A pruned-channel crossing is the root cause of any merge-horizon
  // breach it triggers (the mask fed lookahead the destination should
  // never have had), so report it first.
  if (pruned_channel_handoffs() > 0) {
    return "packet crossed a channel pruned by RestrictChannels";
  }
  if (merge_causality_violations_ > 0) {
    return "cross-shard merge behind destination run horizon";
  }
  return std::string();
}

}  // namespace dctcpp
