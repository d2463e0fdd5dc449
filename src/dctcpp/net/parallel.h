// Conservative time-windowed parallel execution of one simulated world.
//
// A `ParallelSimulation` splits a topology into S shards, each a full
// `Simulator` (own wheel, arena, invariant recorder) holding a subset of
// the hosts and switches. The only interaction between nodes is packet
// propagation over links, and every link imposes a positive propagation
// delay, so cross-shard influence is bounded below by link delays: an
// event executed on shard i at time t cannot affect shard j before
// t + (the cheapest delay of any i->j influence path). The coordinator
// exploits this the classic conservative-PDES way — run every shard
// independently over a window it cannot be influenced within, then
// exchange cross-shard packets at a barrier and repeat.
//
// One window rule drives the loop. Each directed shard pair (i, j)
// carries a channel whose weight is the minimum propagation delay of any
// link crossing it. W is the smallest weight over the channels that
// RestrictChannels still allows; with no such channel (S = 1, or every
// off-diagonal pair pruned) W = kTickMax. At each barrier, with gn the
// earliest pending work of any shard, every shard runs the one global
// window [gn, min(gn + W, deadline + 1)): nothing a peer does inside the
// window can reach it before the window ends. Windows with two or more
// active shards are one WindowGang publish; the rest run inline.
// sync_rounds counts the barriers. Pruning is the only widening of W;
// DESIGN.md Sec. 10 has the measurements behind keeping no other.
//
// Determinism is the design center: a run is bit-identical across shard
// counts and pools. The ingredients:
//
//  - Executed set. Windows only chunk each shard's canonical event
//    sequence; they never reorder it (wheel events pop in (time, seq)
//    order, calendar deliveries in (tick, key) order, deliveries before
//    wheel events at equal ticks). The run always ends at the same
//    canonical point — the queues drain or the deadline passes — so the
//    executed set is identical however execution was chunked.
//  - Delivery order. Every packet's delivery instant is fixed when its
//    egress port admits it (net/link.h), and every delivery is keyed
//    (arrival tick, port id << 32 | per-port wire sequence). Port ids
//    come from a shared construction-time sequence
//    (Simulator::NextPortId) fixed by topology-build order; wire sequence
//    is the per-port FIFO position. Each port's deliveries leave in
//    strictly increasing key order, so the destination shard's arrival
//    calendar orders ports, not packets: a min-heap over the head of
//    every port with pending arrivals. A port whose peer is on its own
//    shard keeps its packets on its own wire and arms the calendar when
//    the wire goes non-empty; a cross-shard port's packets are copied at
//    admission and merged at the barrier into an inbound ring per port on
//    the destination shard. At any tick, calendar deliveries run before
//    wheel events in ascending key order — a total order that mentions
//    nothing about shards or windows.
//  - Stop = quiesce. Simulator::Stop() from inside a shard marks the run
//    stopped, but the coordinator keeps windowing until the world drains
//    (or the deadline passes). Shards overshoot a mid-window stop by
//    partition-dependent amounts; running to quiescence makes the final
//    executed set "every reachable event" — partition-independent — at
//    the cost of a short deterministic tail (in-flight ACKs, one delayed
//    ACK per receiver). Workloads that stop must therefore quiesce once
//    no new work is issued; endless background flows would drain forever
//    and stay unsupported in sharded mode.
//  - Per-entity randomness. Sockets and RED-enabled ports draw from
//    private streams derived from (seed, stable entity id), never from a
//    shared run RNG whose draw order would depend on thread interleaving.
//
// Wheel interleaving within a shard needs no special care: a node's own
// events keep their relative insertion order whatever else shares the
// wheel (the scheduler's (time, insertion-seq) contract), nodes touch no
// common state except through the calendar, and cross-node counters are
// commutative sums.
//
// Note the promise is invariance across {shard count, pool}, not
// equality with the serial single-Simulator path: at equal-tick collisions
// the serial engine orders deliveries by wheel insertion while the
// calendar orders by port id, so the two engines are separately
// deterministic.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dctcpp/net/link.h"
#include "dctcpp/sim/simulator.h"
#include "dctcpp/util/invariants.h"
#include "dctcpp/util/thread_pool.h"
#include "dctcpp/util/time.h"

namespace dctcpp {

/// Saturating tick addition (deadlines may be kTickMax).
inline Tick SatAddTick(Tick a, Tick b) {
  return a > kTickMax - b ? kTickMax : a + b;
}

/// Min-heap of the arrival streams of one shard with pending arrivals,
/// ordered by each stream's head (at, key). Keys are unique (gid << 32 |
/// per-port sequence), so the order is total and independent of arming
/// order, and since every stream is itself in (at, key) order, popping
/// heads yields the shard's arrivals in canonical order. Entries are 24
/// bytes: the packets stay in their streams.
class ArrivalCalendar {
 public:
  bool Empty() const { return heap_.empty(); }
  /// Streams armed (ports with pending arrivals).
  std::size_t Size() const { return heap_.size(); }
  /// Heap capacity in bytes (footprint accounting).
  std::size_t bytes() const { return heap_.capacity() * sizeof(Head); }

  /// Earliest due tick, or kTickMax when empty.
  Tick NextTime() const { return heap_.empty() ? kTickMax : heap_[0].at; }

  /// Adds `stream`, whose head is (at, key). Called when a stream goes
  /// non-empty; a stream is armed at most once at a time.
  void Arm(Tick at, std::uint64_t key, ArrivalStream* stream) {
    heap_.push_back(Head{at, key, stream});
    SiftUp(heap_.size() - 1);
  }

  /// Delivers the earliest head and re-files its stream under its next
  /// head, or drops it when the stream ran dry. Precondition: !Empty().
  void DeliverEarliest();

 private:
  struct Head {
    Tick at;
    std::uint64_t key;
    ArrivalStream* stream;
  };
  /// (at, key) as one 128-bit compare, so the sift's child choice
  /// compiles to a conditional move instead of two unpredictable branches
  /// (calendar ticks are never negative).
  static bool Before(const Head& a, const Head& b) {
    using U128 = unsigned __int128;
    return (static_cast<U128>(a.at) << 64 | a.key) <
           (static_cast<U128>(b.at) << 64 | b.key);
  }
  void SiftUp(std::size_t i);
  void SiftDown(std::size_t i);

  std::vector<Head> heap_;
};

/// Cross-shard arrivals of one egress port, on its destination shard:
/// the barrier merge appends them in wire order and the shard's calendar
/// delivers them from the front. Armed in the calendar exactly while
/// non-empty.
class InboundRing final : public ArrivalStream {
 public:
  InboundRing(PacketSink& sink, int shard, ArrivalCalendar& calendar)
      : sink_(sink), shard_(shard), calendar_(calendar) {}

  int shard() const { return shard_; }
  std::size_t bytes() const { return ring_.Capacity() * sizeof(Entry); }

  /// Appends one arrival, keeping the stream ordered: an arrival the
  /// merge clamped to the destination's horizon never sorts ahead of the
  /// stream's tail. Precondition: `key` is above every key appended so
  /// far.
  void Append(Tick at, std::uint64_t key, const Packet& pkt);

  bool DeliverHead(Tick* at, std::uint64_t* key) override;

  /// Checkpoint: the pending arrivals in FIFO order. LoadState re-arms
  /// the calendar.
  void SaveState(CheckpointWriter& w) const;
  void LoadState(CheckpointReader& r);

 private:
  struct Entry {
    Tick at = 0;
    std::uint64_t key = 0;
    Packet pkt;
  };

  PacketSink& sink_;
  int shard_;
  ArrivalCalendar& calendar_;
  FifoRing<Entry> ring_{4};
};

/// Cross-shard deposits made by one shard during the current window,
/// struct-of-arrays: the handoff hot path appends to dense parallel
/// columns (no per-entry allocation once warm; vectors keep capacity
/// across windows), and the coordinator's merge is a branch-light linear
/// scan over the columns it needs before it ever touches a Packet.
struct OutboxStaging {
  std::vector<Tick> at;
  std::vector<std::uint64_t> key;
  std::vector<InboundRing*> ring;
  std::vector<Packet> pkt;

  std::size_t Size() const { return at.size(); }
  bool Empty() const { return at.empty(); }

  void Append(Tick t, std::uint64_t k, InboundRing* r, const Packet& p) {
    at.push_back(t);
    key.push_back(k);
    ring.push_back(r);
    pkt.push_back(p);
  }

  void Clear() {
    at.clear();
    key.clear();
    ring.clear();
    pkt.clear();
  }
};

/// Host wall-time split of one shard across RunUntil calls: running its
/// window slices, waiting for the rest of each window (barrier wait,
/// including gang dispatch latency), and the coordinator's merge work for
/// it at the barriers (draining its outbox into inbound rings).
/// Host timing only: never fingerprinted or checkpointed.
struct ShardTimes {
  double busy_s = 0.0;
  double wait_s = 0.0;
  double merge_s = 0.0;
};

/// Spin-synchronized gang that fans a window's shard list over pool
/// helpers plus the calling thread. Built for windows a handful of
/// microseconds of work wide: publishing a window is one release store,
/// helpers wait between windows with an escalating backoff (pause, then
/// bounded yields, then short sleeps — so an oversubscribed gang degrades
/// to sleeping helpers instead of burning a core each) and task claiming
/// is an epoch-tagged CAS so a laggard from the previous window can never
/// steal or double-run a task. The caller participates in every window,
/// so completion never depends on the pool actually scheduling the
/// helpers.
class WindowGang {
 public:
  using Task = std::function<void(int)>;

  /// Posts `helpers` long-lived spinner tasks onto `pool`; each window's
  /// task indices are passed to `task`.
  WindowGang(ThreadPool& pool, int helpers, Task task);

  /// Releases the helpers (they exit their spin loops promptly; the pool
  /// joins them at its own destruction).
  ~WindowGang();

  WindowGang(const WindowGang&) = delete;
  WindowGang& operator=(const WindowGang&) = delete;

  /// Runs task indices [0, n) across the gang; returns when all n have
  /// completed. All writes made by the caller before Run are visible to
  /// every task; all writes made by tasks are visible to the caller after
  /// Run returns.
  void Run(int n);

 private:
  struct State {
    std::atomic<std::uint64_t> seq{0};    ///< published window number
    std::atomic<std::uint64_t> claim{0};  ///< seq << 32 | next task index
    std::atomic<std::uint32_t> done{0};   ///< tasks completed this window
    std::atomic<bool> exit{false};
    /// Task count, double-buffered by window parity. A helper parked on
    /// the finished window w's terminal claim (w, n) must keep reading
    /// *w's* count after the caller started window w+1 — a single slot
    /// would let it pass the bounds check with w+1's larger count and
    /// CAS-claim a slot of the dead window before the new epoch lands.
    std::atomic<int> count[2] = {0, 0};
  };

  static void ClaimLoop(State& s, std::uint64_t my_seq, const Task& task);

  // Heap-shared with the helper lambdas: a helper that outlives this
  // object (still spinning when the destructor's exit bump lands) touches
  // only the State, never the gang or its owner.
  std::shared_ptr<State> state_;
  Task task_;
  std::uint64_t next_seq_ = 0;
};

/// Coordinator owning the S shard Simulators of one world. Topology
/// construction goes through Network(ParallelSimulation&), which assigns
/// nodes to shards; every egress port reports its link's delay here
/// (ObserveChannel), and the workload then drives the run with RunUntil.
class ParallelSimulation {
 public:
  /// All shards share `seed` (stream ids, not draw interleaving, separate
  /// consumers) and the construction-time id sequences.
  ParallelSimulation(std::uint64_t seed, int shards);

  ParallelSimulation(const ParallelSimulation&) = delete;
  ParallelSimulation& operator=(const ParallelSimulation&) = delete;

  int shard_count() const { return static_cast<int>(shards_.size()); }
  Simulator& shard(int i) { return shards_[static_cast<std::size_t>(i)]->sim; }

  /// Called by EgressPort construction for every link direction (zero
  /// delays are rejected: they would leave no lookahead). A cross-shard
  /// link lowers the (src, dst) channel's minimum delay, from which
  /// RunUntil takes the window W; an intra-shard link lowers the shard's
  /// self_delay (see RunShardWindow).
  void ObserveChannel(int src, int dst, Tick propagation_delay);

  /// Channel pruning: W ignores every shard pair not in `allowed`
  /// (row-major S x S, nonzero = traffic possible). A fabric that knows
  /// its connection matrix can prove most directed pairs carry no packet
  /// ever — every ECMP member of every flow's path, both directions,
  /// stays inside the allowed set — and pruning them widens W to the
  /// cheapest channel left; with every off-diagonal pair pruned (e.g.
  /// pod-local incast rows under a pod-boundary partition) the run is one
  /// window to the deadline. The claim is verified, not trusted: a
  /// cross-shard handoff on a pruned pair increments a per-shard
  /// violation counter folded into invariant_violations() (and the
  /// merge-horizon check would also fire), so a wrong mask is loud, never
  /// a silent mis-simulation. Call after topology construction, before
  /// RunUntil.
  void RestrictChannels(std::vector<std::uint8_t> allowed);

  /// Cross-shard handoffs that crossed a pruned channel (expected 0).
  std::uint64_t pruned_channel_handoffs() const;

  /// Stages a packet due at `at` for `ring` on another shard, in the
  /// source shard's SoA staging buffer; the coordinator merges it at the
  /// barrier. Called on shard `src`'s thread by a cross-shard EgressPort
  /// when it admits the packet: `at` is then at least one link delay past
  /// the admission instant, so it lands at or past the current window's
  /// end (DESIGN.md Sec. 10).
  void Handoff(int src, InboundRing& ring, Tick at, std::uint64_t key,
               const Packet& pkt);

  /// Shard `i`'s arrival calendar, which a local EgressPort arms with its
  /// wire (topology construction).
  ArrivalCalendar& calendar(int i) {
    return shards_[static_cast<std::size_t>(i)]->calendar;
  }

  /// Creates the inbound ring on shard `dst_shard` that feeds `sink` with
  /// one cross-shard port's packets (topology construction, so rings are
  /// in port-gid order). Rings live as long as this object.
  InboundRing& AddInboundRing(PacketSink& sink, int dst_shard);

  /// Runs every shard to `deadline` (inclusive, as Simulator::RunUntil)
  /// in lockstep windows of width W. Windows with more than one active
  /// shard are fanned over `pool` (nullptr or empty pool: coordinator
  /// runs everything inline). Returns the number of windows executed.
  std::uint64_t RunUntil(Tick deadline, ThreadPool* pool = nullptr);

  /// True once a shard called Simulator::Stop() during the run. The
  /// coordinator still drains the world to quiescence first — see the
  /// "Stop = quiesce" note in the file header.
  bool stopped() const { return stopped_; }

  // --- merged run statistics -------------------------------------------
  /// Wheel events plus calendar deliveries across all shards.
  std::uint64_t events_executed() const;
  std::uint64_t packets_forwarded() const;
  NetworkInvariants::Ledger MergedLedger() const;
  /// Per-shard violations summed, plus one if the merged ledger fails the
  /// consistency check that per-shard recorders must defer (a packet is
  /// born on one shard and retired on another), plus any coordinator
  /// violations: a merge that lands behind a shard's run horizon, or a
  /// handoff on a pruned channel.
  std::uint64_t invariant_violations() const;
  std::string first_violation() const;

  /// Windows run, one barrier each (fabric_scale / micro_shard_handoff).
  /// Deterministic: depends on simulation data and the channel mask only,
  /// never on the pool or thread timing.
  std::uint64_t sync_rounds() const { return sync_rounds_; }
  std::uint64_t calendar_deliveries() const;
  std::uint64_t cross_shard_handoffs() const;
  /// Coordinator-level causality check (always on, expected 0): merges
  /// behind a shard's horizon.
  std::uint64_t merge_causality_violations() const {
    return merge_causality_violations_;
  }
  /// Events (wheel + calendar) executed by shard `i`. The maximum share
  /// bounds the achievable parallel speedup: total / max.
  std::uint64_t shard_events(int i) {
    Shard& sh = *shards_[static_cast<std::size_t>(i)];
    return sh.sim.scheduler().executed() + sh.delivered;
  }
  /// Host time split of shard `i` (see ShardTimes).
  ShardTimes shard_times(int i) const;
  /// Bytes held by the calendars' heaps and the inbound rings.
  std::size_t CalendarBytes() const;

  SharedSequences& sequences() { return sequences_; }

  // --- checkpoint/restore (sim/checkpoint.h) ----------------------------

  /// Serializes the whole sharded world. Only valid at a RunUntil return
  /// (barrier): every staging buffer is empty and all in-flight packets
  /// sit in serializable containers (port queues/wires, inbound rings).
  void SaveCheckpoint(CheckpointWriter& w, const CheckpointHooks* hooks) const;

  /// Restores into a freshly built, never-run world with the same seed,
  /// shard count, and topology. Aborts on structural mismatch.
  void RestoreCheckpoint(CheckpointReader& r, CheckpointHooks* hooks);

 private:
  struct Shard {
    explicit Shard(std::uint64_t seed) : sim(seed) {}
    Simulator sim;
    ArrivalCalendar calendar;
    /// Cross-shard ports feeding this shard, in gid order.
    std::vector<std::unique_ptr<InboundRing>> inbound;
    /// Cross-shard deposits made during the current window; written only
    /// by this shard's runner, drained only by the coordinator between
    /// windows.
    OutboxStaging staging;
    std::uint64_t delivered = 0;       ///< calendar deliveries executed
    std::uint64_t cross_deposits = 0;  ///< entries that left this shard
    /// Highest window end this shard was ever released to run under; a
    /// merged arrival below it would be a causality violation.
    Tick ran_to = 0;
    /// Minimum propagation delay of any link with both endpoints on this
    /// shard: how far the wheel may run blind before an event could have
    /// armed this shard's own calendar with a new arrival.
    Tick self_delay = kTickMax;
    /// Handoffs this shard deposited onto a pruned channel (written only
    /// by the shard's runner; a violation of the RestrictChannels mask).
    std::uint64_t pruned_handoffs = 0;
    /// Host seconds in RunShardWindow (written by the shard's runner) and
    /// in MergeStaging on its behalf.
    double busy_s = 0.0;
    double merge_s = 0.0;
  };

  /// Earliest pending work (wheel or calendar) of one shard.
  Tick ShardNext(Shard& sh) {
    return std::min(sh.sim.scheduler().NextTime(), sh.calendar.NextTime());
  }

  /// W: the minimum delay over the cross-shard channels the mask allows,
  /// kTickMax when there is none.
  Tick WindowWidth() const;

  /// Runs one shard's slice of the window [*, end): wheel events and
  /// calendar deliveries interleaved in canonical order, deliveries first
  /// at equal ticks.
  void RunShardWindow(int idx, Tick end);

  /// Drains every shard's staging buffer into the destination inbound
  /// rings, checking each entry against the destination's run horizon.
  void MergeStaging();

  std::uint64_t seed_;
  SharedSequences sequences_;
  std::atomic<bool> stop_{false};
  bool stopped_ = false;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Row-major S x S minimum delay of any single link crossing (i, j),
  /// kTickMax where no link does (so always on the diagonal).
  std::vector<Tick> channel_min_;
  /// Row-major S x S channel mask from RestrictChannels (empty = allow
  /// all). Only WindowWidth consults it; channel_min_ keeps the physical
  /// link delays so the mask can be re-applied or audited.
  std::vector<std::uint8_t> channel_allowed_;
  std::vector<int> active_;  ///< shard ids of the window being run
  Tick window_end_ = 0;      ///< end of the window being run
  std::uint64_t sync_rounds_ = 0;
  double window_s_ = 0.0;  ///< host seconds inside windows, all shards
  std::uint64_t merge_causality_violations_ = 0;
};

}  // namespace dctcpp
