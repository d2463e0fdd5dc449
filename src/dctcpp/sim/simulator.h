// Simulation façade: clock + scheduler + arrival calendar + run loop +
// per-run RNG.
//
// One `Simulator` instance is one independent simulated world. Nothing in
// the library uses global mutable state, so many Simulators can run
// concurrently on different threads (the experiment harness relies on this).
//
// One run loop serves every world. Timers and app work run on the wheel;
// packet arrivals run from the arrival calendar (sim/arrival_calendar.h),
// which the egress ports of this world arm with their wires. At each tick
// calendar deliveries run before wheel events.
//
// A Simulator can also be one *shard* of a larger world: the conservative
// parallel engine (net/parallel.h) builds S Simulators over the same seed,
// gives them shared construction-time id sequences (so stream and port ids
// are assigned identically regardless of S), and drives each shard through
// bounded time windows (RunWindow) of the same run loop. A single-Simulator
// world is the S = 1 case without the coordinator: BindShard and SetNow are
// inert there.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "dctcpp/sim/arrival_calendar.h"
#include "dctcpp/sim/scheduler.h"
#include "dctcpp/util/arena.h"
#include "dctcpp/util/invariants.h"
#include "dctcpp/util/rng.h"
#include "dctcpp/util/time.h"

namespace dctcpp {

class ParallelSimulation;
class Checkpointable;
class CheckpointHooks;
class CheckpointWriter;
class CheckpointReader;
class FlightRecorder;

/// Construction-time id counters shared by every shard of a parallel
/// simulation (and trivially private in the single-Simulator case). Kept
/// outside the RNG so id assignment depends only on construction order —
/// which the deterministic topology builders fix — never on shard count.
struct SharedSequences {
  std::uint64_t next_impairment_stream = 0;
  std::uint64_t next_port_id = 0;
};

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : seed_(seed), rng_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  Tick Now() const { return now_; }

  /// The run's random stream. All model randomness must come from here.
  Rng& rng() { return rng_; }

  /// The seed this world was constructed with.
  std::uint64_t seed() const { return seed_; }

  /// Derives an independent RNG stream from the run seed and a stream id.
  /// Unlike `rng().Fork()`, the result depends only on (seed, id) — never
  /// on how many draws other components made — so consumers with their own
  /// stream (per-link impairment) stay bit-identical when unrelated
  /// randomness is added or removed elsewhere in the configuration.
  Rng StreamRng(std::uint64_t stream_id) const {
    std::uint64_t state = seed_ ^ (0xa0761d6478bd642fULL * (stream_id + 1));
    return Rng(SplitMix64(state));
  }

  /// Allocates the next impairment stream id. Links claim one at
  /// construction; topology building is deterministic, so link K of a
  /// given setup always receives the same stream.
  std::uint64_t NextImpairmentStream() {
    return sequences_->next_impairment_stream++;
  }

  /// Allocates the next global egress-port id (the shard-count-invariant
  /// half of every arrival key; see sim/arrival_calendar.h).
  std::uint64_t NextPortId() { return sequences_->next_port_id++; }

  /// This world's packet arrivals: a local egress port arms it with its
  /// own wire, a cross-shard port feeding this shard with its inbound
  /// ring.
  ArrivalCalendar& calendar() { return calendar_; }

  /// Declares a local link: no event at u can arm the calendar with an
  /// arrival due before u + `lookahead` over it. The minimum over all local
  /// links bounds how far the run loop may run wheel events blind.
  void ObserveLocalLink(Tick lookahead) {
    DCTCPP_ASSERT(lookahead > 0);
    lookahead_ = std::min(lookahead_, lookahead);
  }

  /// The always-on invariant recorder (see util/invariants.h). Datapath
  /// and transport components report violations and maintain the packet
  /// ledger here; harnesses assert `invariants().violations() == 0`.
  NetworkInvariants& invariants() { return invariants_; }
  const NetworkInvariants& invariants() const { return invariants_; }

  Scheduler& scheduler() { return scheduler_; }

  /// Per-simulation slab arena for control-plane objects whose lifetime is
  /// the whole run (sockets, per-connection app state, probes). Declared
  /// before the scheduler so it is destroyed after everything that might
  /// reference arena objects during teardown. See util/arena.h for the
  /// lifetime rules.
  Arena& arena() { return arena_; }

  /// Schedules `action` to run `delay` from now (delay >= 0).
  EventId Schedule(Tick delay, Scheduler::Action action) {
    DCTCPP_ASSERT(delay >= 0);
    return scheduler_.ScheduleAt(now_ + delay, std::move(action));
  }

  /// Schedules at an absolute time (must not be in the past).
  EventId ScheduleAt(Tick at, Scheduler::Action action) {
    DCTCPP_ASSERT(at >= now_);
    return scheduler_.ScheduleAt(at, std::move(action));
  }

  void Cancel(EventId id) { scheduler_.Cancel(id); }

  /// Runs until the wheel and calendar drain, `Stop()` is called, or the
  /// clock passes `deadline`. Returns the number of events (wheel events
  /// plus deliveries) executed by this call.
  std::uint64_t RunUntil(Tick deadline);

  /// Runs until the event queue drains or `Stop()` is called.
  std::uint64_t Run() { return RunUntil(kTickMax); }

  /// Requests the run loop to return after the current event. In a shard,
  /// the request is forwarded to the parallel coordinator, which honors it
  /// at the next window barrier — after *every* shard has finished the
  /// current window — so the set of windows executed, and therefore every
  /// counter, stays shard-count-invariant.
  void Stop() {
    if (shard_stop_ != nullptr) {
      shard_stop_->store(true, std::memory_order_release);
    } else {
      stopped_ = true;
    }
  }

  bool stopped() const { return stopped_; }

  /// Wheel events plus calendar deliveries, ever.
  std::uint64_t events_executed() const {
    return scheduler_.executed() + delivered_;
  }
  /// Calendar deliveries (packets handed to a node of this world), ever.
  std::uint64_t deliveries() const { return delivered_; }

  /// Datapath throughput counter: packets accepted by any egress port of
  /// this world (bumped by EgressPort::Send on successful enqueue). The
  /// numerator of the regression harness's packets/sec.
  void CountForwardedPacket() { ++packets_forwarded_; }
  std::uint64_t packets_forwarded() const { return packets_forwarded_; }

  // --- shard hooks (driven by net/parallel.h) ---------------------------

  /// Marks this Simulator as shard `shard_id` of `parallel`: construction
  /// ids come from the shared sequences, Stop() is routed to `stop_flag`,
  /// and per-shard ledger checking is relaxed (see
  /// NetworkInvariants::DisableLedgerCheck).
  void BindShard(ParallelSimulation* parallel, int shard_id,
                 SharedSequences* sequences, std::atomic<bool>* stop_flag) {
    parallel_ = parallel;
    shard_id_ = shard_id;
    sequences_ = sequences;
    shard_stop_ = stop_flag;
    invariants_.DisableLedgerCheck();
  }

  /// The coordinator when this Simulator is a shard, else nullptr.
  ParallelSimulation* parallel() const { return parallel_; }
  int shard_id() const { return shard_id_; }

  /// Runs every pending event (wheel or calendar) with timestamp strictly
  /// before `end`, ignoring Stop — a shard always completes its window.
  /// Returns the number of events executed. The clock mirrors each event's
  /// timestamp exactly as in RunUntil but is NOT advanced to `end`
  /// afterwards: windows are half-open and the next window's events may
  /// land at any tick >= the last executed one.
  std::uint64_t RunWindow(Tick end) {
    const bool no_stop = false;
    return RunLoop(end, &no_stop);
  }

  /// Advances the clock without running events (final deadline alignment
  /// in sharded runs). Monotonic only.
  void SetNow(Tick t) {
    DCTCPP_ASSERT(t >= now_);
    now_ = t;
  }

  // --- checkpoint/restore (sim/checkpoint.h, implemented there) ---------

  /// Registers an infrastructure component (host, port, switch) whose
  /// state rides in this world's checkpoint section. Construction-time
  /// only; deterministic builders guarantee identical registration order
  /// in a rebuilt world.
  void RegisterCheckpointable(Checkpointable* c) {
    checkpoint_clients_.push_back(c);
  }

  /// Serializes this world at a barrier (see checkpoint.h). `hooks`
  /// contributes the workload section; null writes an empty one.
  void SaveCheckpoint(CheckpointWriter& w, const CheckpointHooks* hooks) const;

  /// Restores into this freshly built, never-run world. Aborts on any
  /// structural mismatch (tag drift, client count, live-event count).
  void RestoreCheckpoint(CheckpointReader& r, CheckpointHooks* hooks);

  // --- flight recorder (util/flight_recorder.h) -------------------------

  /// The attached flight recorder, or nullptr (the default: recording
  /// off, hook sites cost one null check). Not owned; not checkpointed.
  /// Attach after BindShard so violation records carry the shard id.
  FlightRecorder* flight_recorder() const { return flight_recorder_; }
  void set_flight_recorder(FlightRecorder* fr) {
    flight_recorder_ = fr;
    invariants_.AttachFlightRecorder(fr, &now_, shard_id_);
  }

 private:
  /// The one run loop: events before `end` in canonical order, returning
  /// after the first event that sets `*stop`.
  std::uint64_t RunLoop(Tick end, const bool* stop);

  Tick now_ = 0;
  bool stopped_ = false;
  std::uint64_t seed_ = 1;
  std::uint64_t packets_forwarded_ = 0;
  std::uint64_t delivered_ = 0;
  /// Minimum ObserveLocalLink bound; kTickMax while no local link exists.
  Tick lookahead_ = kTickMax;
  SharedSequences own_sequences_;
  SharedSequences* sequences_ = &own_sequences_;
  ParallelSimulation* parallel_ = nullptr;
  int shard_id_ = 0;
  std::atomic<bool>* shard_stop_ = nullptr;
  FlightRecorder* flight_recorder_ = nullptr;
  std::vector<Checkpointable*> checkpoint_clients_;
  NetworkInvariants invariants_;
  Arena arena_;
  Scheduler scheduler_;
  ArrivalCalendar calendar_;
  Rng rng_;
};

}  // namespace dctcpp
