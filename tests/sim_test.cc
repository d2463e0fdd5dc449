// Unit tests for the discrete-event engine: scheduler ordering, lazy
// cancellation, run-loop semantics, and the cancellable Timer. The
// scheduler suite is typed and runs against both backends (the production
// timer wheel and the reference binary heap), which share one determinism
// contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "dctcpp/sim/pinned_event.h"
#include "dctcpp/sim/scheduler.h"
#include "dctcpp/sim/simulator.h"
#include "dctcpp/sim/timer.h"
#include "dctcpp/util/rng.h"
#include "reference/heap_scheduler.h"

namespace dctcpp {
namespace {

using namespace time_literals;

// ---------------------------------------------------------------------------
// Scheduler (both backends)

template <typename S>
class SchedulerTest : public ::testing::Test {};

using SchedulerBackends =
    ::testing::Types<TimerWheelScheduler, HeapScheduler>;
TYPED_TEST_SUITE(SchedulerTest, SchedulerBackends);

TYPED_TEST(SchedulerTest, RunsInTimeOrder) {
  TypeParam sched;
  std::vector<int> order;
  sched.ScheduleAt(30, [&] { order.push_back(3); });
  sched.ScheduleAt(10, [&] { order.push_back(1); });
  sched.ScheduleAt(20, [&] { order.push_back(2); });
  while (!sched.Empty()) sched.RunNext();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TYPED_TEST(SchedulerTest, FifoAmongEqualTimestamps) {
  TypeParam sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sched.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  while (!sched.Empty()) sched.RunNext();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TYPED_TEST(SchedulerTest, SameTickFifoPropertyUnderRandomArrival) {
  // Property: however the same-tick events are interleaved with events at
  // other ticks, and whatever order the ticks themselves arrive in,
  // execution at any tick follows scheduling order. Exercises the wheel
  // across cascade boundaries (ticks span several levels).
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    TypeParam sched;
    constexpr int kEvents = 512;
    std::vector<std::pair<Tick, int>> scheduled;  // (tick, arrival rank)
    for (int i = 0; i < kEvents; ++i) {
      // A handful of distinct ticks spread over ~200 ms forces collisions.
      const Tick at = 25_us * rng.UniformInt(0, 15) +
                      200_ms * rng.UniformInt(0, 1);
      scheduled.emplace_back(at, i);
    }
    std::vector<std::pair<Tick, int>> fired;
    for (const auto& [at, rank] : scheduled) {
      sched.ScheduleAt(at, [&fired, at = at, rank = rank] {
        fired.emplace_back(at, rank);
      });
    }
    while (!sched.Empty()) sched.RunNext();
    // Expected order: stable sort of arrival order by tick.
    std::stable_sort(
        scheduled.begin(), scheduled.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    EXPECT_EQ(fired, scheduled) << "seed " << seed;
  }
}

TYPED_TEST(SchedulerTest, CancelPreventsExecution) {
  TypeParam sched;
  bool ran = false;
  const EventId id = sched.ScheduleAt(10, [&] { ran = true; });
  sched.Cancel(id);
  EXPECT_TRUE(sched.Empty());
  EXPECT_FALSE(ran);
}

TYPED_TEST(SchedulerTest, CancelIsIdempotentAndSafeOnFiredEvents) {
  TypeParam sched;
  const EventId id = sched.ScheduleAt(1, [] {});
  sched.RunNext();
  sched.Cancel(id);  // already fired: no-op
  sched.Cancel(id);
  sched.Cancel(EventId{});  // invalid id: no-op
  EXPECT_TRUE(sched.Empty());
}

TYPED_TEST(SchedulerTest, StaleIdAfterFireCannotCancelLaterEvent) {
  // Regression test for the EventId reuse hazard: after `first` fires, its
  // pool slot may be recycled for `second`. The stale handle carries an
  // old generation and must not cancel the new occupant.
  TypeParam sched;
  const EventId first = sched.ScheduleAt(1, [] {});
  sched.RunNext();  // `first` fires; its storage may now be reused
  bool second_ran = false;
  const EventId second = sched.ScheduleAt(2, [&] { second_ran = true; });
  sched.Cancel(first);  // stale: must be a no-op
  EXPECT_EQ(sched.PendingCount(), 1u);
  sched.RunNext();
  EXPECT_TRUE(second_ran);
  (void)second;
}

TYPED_TEST(SchedulerTest, DoubleCancelCannotCancelLaterEvent) {
  // Regression test: cancelling twice must not free the slot twice nor
  // touch a later event that reuses it.
  TypeParam sched;
  const EventId victim = sched.ScheduleAt(10, [] {});
  sched.Cancel(victim);
  bool reused_ran = false;
  sched.ScheduleAt(20, [&] { reused_ran = true; });
  sched.Cancel(victim);  // double cancel: stale, must be a no-op
  EXPECT_EQ(sched.PendingCount(), 1u);
  sched.RunNext();
  EXPECT_TRUE(reused_ran);
}

TYPED_TEST(SchedulerTest, PendingCountTracksLiveEvents) {
  TypeParam sched;
  const EventId a = sched.ScheduleAt(1, [] {});
  sched.ScheduleAt(2, [] {});
  EXPECT_EQ(sched.PendingCount(), 2u);
  sched.Cancel(a);
  EXPECT_EQ(sched.PendingCount(), 1u);
  sched.RunNext();
  EXPECT_EQ(sched.PendingCount(), 0u);
}

TYPED_TEST(SchedulerTest, NextTimeSkipsCancelled) {
  TypeParam sched;
  const EventId a = sched.ScheduleAt(1, [] {});
  sched.ScheduleAt(5, [] {});
  sched.Cancel(a);
  EXPECT_EQ(sched.NextTime(), 5);
}

TYPED_TEST(SchedulerTest, EventsScheduledDuringExecutionRun) {
  TypeParam sched;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sched.ScheduleAt(depth, recurse);
  };
  sched.ScheduleAt(0, recurse);
  while (!sched.Empty()) sched.RunNext();
  EXPECT_EQ(depth, 5);
}

TYPED_TEST(SchedulerTest, ExecutedCounter) {
  TypeParam sched;
  for (int i = 0; i < 7; ++i) sched.ScheduleAt(i, [] {});
  while (!sched.Empty()) sched.RunNext();
  EXPECT_EQ(sched.executed(), 7u);
}

TYPED_TEST(SchedulerTest, SparseFarApartEventsPopExactly) {
  // Timestamps chosen to sit on different wheel levels and force long
  // idle jumps (multi-level cascades) between pops.
  TypeParam sched;
  const std::vector<Tick> times = {3,         40,        5_us,     90_us,
                                   3_ms,      250_ms,    2_s,      60_s,
                                   3600_s};
  std::vector<Tick> fired;
  for (const Tick at : times) {
    sched.ScheduleAt(at, [&fired, at] { fired.push_back(at); });
  }
  while (!sched.Empty()) {
    const Tick next = sched.NextTime();
    EXPECT_EQ(sched.RunNext(), next);
  }
  EXPECT_EQ(fired, times);
}

// ---------------------------------------------------------------------------
// Timer wheel specifics

TEST(TimerWheelTest, FarFutureEventsUseOverflowHeapAndStillFireInOrder) {
  TimerWheelScheduler sched;
  // ~26 simulated days in ns: beyond the 2^50-tick wheel span.
  const Tick far = Tick(1) << 51;
  std::vector<int> order;
  sched.ScheduleAt(far + 5, [&] { order.push_back(3); });
  const EventId cancelled = sched.ScheduleAt(far, [&] { order.push_back(9); });
  sched.ScheduleAt(far + 5, [&] { order.push_back(4); });
  sched.ScheduleAt(100, [&] { order.push_back(1); });
  EXPECT_EQ(sched.OverflowCount(), 3u);
  sched.Cancel(cancelled);  // cancellation of a heap-resident event
  EXPECT_EQ(sched.OverflowCount(), 2u);
  EXPECT_EQ(sched.NextTime(), 100);
  while (!sched.Empty()) sched.RunNext();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 4}));
}

TEST(TimerWheelTest, InlineActionStoresSmallCapturesInline) {
  int counter = 0;
  InlineAction small([&counter] { ++counter; });
  EXPECT_TRUE(small.IsInline());
  small();
  small();  // repeat invocation (Timer relies on this)
  EXPECT_EQ(counter, 2);

  struct Big {
    char bytes[2 * InlineAction::kInlineSize] = {};
  };
  Big big_payload;
  InlineAction big([big_payload, &counter] {
    counter += static_cast<int>(sizeof(big_payload.bytes)) > 0 ? 1 : 0;
  });
  EXPECT_FALSE(big.IsInline());  // boxed, but still works
  big();
  EXPECT_EQ(counter, 3);

  InlineAction moved = std::move(small);
  EXPECT_TRUE(moved.IsInline());
  moved();
  EXPECT_EQ(counter, 4);
  EXPECT_FALSE(static_cast<bool>(small));  // NOLINT: moved-from is empty
}

// One-shot actions live in a pool beside the nodes. Slots recycle across
// fire, cancel and reschedule: a second round of the same number of
// events reuses them and the pools do not grow, and a stale EventId (its
// event fired or was cancelled, its node reused) cancels nothing.
TEST(TimerWheelTest, ActionSlotsRecycleAcrossFireCancelAndReschedule) {
  TimerWheelScheduler sched;
  constexpr int kEvents = 600;  // more than one action chunk
  int fired = 0;
  std::vector<EventId> ids;
  for (int i = 0; i < kEvents; ++i) {
    ids.push_back(sched.ScheduleAt(10 + i, [&fired] { ++fired; }));
  }
  for (int i = 0; i < kEvents; i += 2) sched.Cancel(ids[i]);
  while (!sched.Empty()) sched.RunNext();
  EXPECT_EQ(fired, kEvents / 2);
  const std::size_t pool_bytes = sched.PoolBytes();

  // Reschedule: every node and action slot comes off a free list.
  fired = 0;
  std::vector<EventId> again;
  for (int i = 0; i < kEvents; ++i) {
    again.push_back(sched.ScheduleAt(2000 + i, [&fired] { ++fired; }));
  }
  EXPECT_EQ(sched.PoolBytes(), pool_bytes);
  for (const EventId stale : ids) sched.Cancel(stale);  // fired or cancelled
  EXPECT_EQ(sched.PendingCount(), static_cast<std::size_t>(kEvents));
  sched.Cancel(again[0]);
  sched.Cancel(again[0]);  // second cancel of the same id: stale
  while (!sched.Empty()) sched.RunNext();
  EXPECT_EQ(fired, kEvents - 1);
  EXPECT_EQ(sched.PoolBytes(), pool_bytes);
}

// A boxed (> 48-byte) action is destroyed exactly once whether it fires
// (pop-per-event or the same-tick batch path), is cancelled, or is still
// pending when the scheduler dies; a fired one is released right after it
// runs, not when its slot is next reused.
TEST(TimerWheelTest, BoxedActionIsDestroyedExactlyOnce) {
  struct Boxed {
    Boxed(int* run_count, int* destroy_count)
        : runs(run_count), destroyed(destroy_count) {}
    Boxed(Boxed&& o) noexcept
        : runs(o.runs), destroyed(o.destroyed), owner(o.owner) {
      o.owner = false;
    }
    ~Boxed() {
      if (owner) ++*destroyed;
    }
    void operator()() { ++*runs; }
    char pad[2 * InlineAction::kInlineSize] = {};
    int* runs;
    int* destroyed;
    bool owner = true;  ///< false once moved from
  };
  static_assert(sizeof(Boxed) > InlineAction::kInlineSize);

  int runs = 0;
  int destroyed = 0;
  {
    TimerWheelScheduler sched;
    sched.ScheduleAt(5, Boxed(&runs, &destroyed));
    const EventId cancelled = sched.ScheduleAt(6, Boxed(&runs, &destroyed));
    sched.ScheduleAt(7, Boxed(&runs, &destroyed));
    EXPECT_EQ(destroyed, 0);
    sched.Cancel(cancelled);
    EXPECT_EQ(destroyed, 1);
    sched.Cancel(cancelled);  // stale: nothing more to destroy
    EXPECT_EQ(destroyed, 1);
    sched.RunNext();
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(destroyed, 2);

    // Three same-tick events drain through the batch path.
    for (int i = 0; i < 3; ++i) sched.ScheduleAt(50, Boxed(&runs, &destroyed));
    bool stop = false;
    Tick now = 0;
    EXPECT_EQ(sched.RunLoop(50, &stop, &now), 4u);  // tick 7, then tick 50
    EXPECT_EQ(runs, 5);
    EXPECT_EQ(destroyed, 6);

    sched.ScheduleAt(100, Boxed(&runs, &destroyed));  // dies pending
  }
  EXPECT_EQ(runs, 5);
  EXPECT_EQ(destroyed, 7);
}

// ---------------------------------------------------------------------------
// Simulator

TEST(SimulatorTest, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<Tick> at;
  sim.Schedule(10, [&] { at.push_back(sim.Now()); });
  sim.Schedule(25, [&] { at.push_back(sim.Now()); });
  sim.Run();
  EXPECT_EQ(at, (std::vector<Tick>{10, 25}));
  EXPECT_EQ(sim.Now(), 25);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  bool late = false;
  sim.Schedule(10, [] {});
  sim.Schedule(100, [&] { late = true; });
  sim.RunUntil(50);
  EXPECT_FALSE(late);
  EXPECT_EQ(sim.Now(), 50);  // clock parked at the deadline
  sim.Run();
  EXPECT_TRUE(late);
}

TEST(SimulatorTest, StopEndsRunEarly) {
  Simulator sim;
  int ran = 0;
  sim.Schedule(1, [&] {
    ++ran;
    sim.Stop();
  });
  sim.Schedule(2, [&] { ++ran; });
  sim.Run();
  EXPECT_EQ(ran, 1);
  sim.Run();  // resumes with the remaining event
  EXPECT_EQ(ran, 2);
}

TEST(SimulatorTest, RelativeScheduleUsesCurrentTime) {
  Simulator sim;
  Tick inner_fired = -1;
  sim.Schedule(10, [&] {
    sim.Schedule(5, [&] { inner_fired = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(inner_fired, 15);
}

TEST(SimulatorTest, SeededRngIsDeterministicAcrossInstances) {
  Simulator a(99), b(99);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(a.rng().Next(), b.rng().Next());
  }
}

TEST(SimulatorTest, RunReturnsExecutedCount) {
  Simulator sim;
  for (int i = 1; i <= 5; ++i) sim.Schedule(i, [] {});
  EXPECT_EQ(sim.Run(), 5u);
}

// ---------------------------------------------------------------------------
// Timer

TEST(TimerTest, FiresOnceAtExpiry) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  t.Schedule(100);
  EXPECT_TRUE(t.IsPending());
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.IsPending());
  EXPECT_EQ(sim.Now(), 100);
}

TEST(TimerTest, CancelPreventsFiring) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  t.Schedule(100);
  t.Cancel();
  sim.Run();
  EXPECT_EQ(fired, 0);
}

TEST(TimerTest, RescheduleReplacesPending) {
  Simulator sim;
  std::vector<Tick> fires;
  Timer t(sim, [&] { fires.push_back(sim.Now()); });
  t.Schedule(100);
  t.Schedule(50);  // re-arm earlier
  sim.Run();
  EXPECT_EQ(fires, (std::vector<Tick>{50}));
}

TEST(TimerTest, CanReArmFromCallback) {
  Simulator sim;
  int fired = 0;
  Timer* self = nullptr;
  Timer t(sim, [&] {
    if (++fired < 3) self->Schedule(10);
  });
  self = &t;
  t.Schedule(10);
  sim.Run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.Now(), 30);
}

TEST(TimerTest, ExpiresAtReflectsArming) {
  Simulator sim;
  Timer t(sim, [] {});
  sim.Schedule(7, [&] { t.Schedule(13); });
  sim.Run();
  EXPECT_EQ(t.expires_at(), 20);
}

// A callback using the whole 24-byte InlineHandler budget (three words;
// the churn departure timer's [w, host, idx] takes 16) is stored inline
// and fires exactly once, at expiry, with every captured word intact.
TEST(TimerTest, FullInlineCaptureFiresOnceAtExpiry) {
  struct Seen {
    Simulator* sim = nullptr;
    int fires = 0;
    Tick at = -1;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
  };
  Simulator sim;
  Seen seen;
  seen.sim = &sim;
  Seen* out = &seen;
  const std::uint64_t a = 0x0123456789abcdefull;
  const std::uint64_t b = 0xfedcba9876543210ull;
  auto cb = [out, a, b] {
    ++out->fires;
    out->at = out->sim->Now();
    out->a = a;
    out->b = b;
  };
  static_assert(sizeof(cb) == Timer::Callback::kInlineSize);
  Timer t(sim, cb);
  t.Schedule(100);
  sim.Run();
  EXPECT_EQ(seen.fires, 1);
  EXPECT_EQ(seen.at, 100);
  EXPECT_EQ(seen.a, a);
  EXPECT_EQ(seen.b, b);
  EXPECT_FALSE(t.IsPending());
}

TEST(TimerTest, DestructionCancelsPendingEvent) {
  Simulator sim;
  int fired = 0;
  {
    Timer t(sim, [&] { ++fired; });
    t.Schedule(10);
  }
  sim.Run();
  EXPECT_EQ(fired, 0);
}

// ---------------------------------------------------------------------------
// Pinned events (one wheel node re-armed for a lifetime)

TEST(PinnedEventTest, FiresAtArmedTime) {
  Simulator sim;
  std::vector<Tick> fires;
  struct Ctx {
    Simulator* sim;
    std::vector<Tick>* fires;
  } ctx{&sim, &fires};
  PinnedEvent ev(
      sim, [](void* p) {
        auto* c = static_cast<Ctx*>(p);
        c->fires->push_back(c->sim->Now());
      },
      &ctx);
  EXPECT_FALSE(ev.armed());
  ev.ArmAt(25);
  EXPECT_TRUE(ev.armed());
  sim.Run();
  EXPECT_FALSE(ev.armed());
  EXPECT_EQ(fires, (std::vector<Tick>{25}));
}

TEST(PinnedEventTest, ReArmReplacesPendingArming) {
  Simulator sim;
  std::vector<Tick> fires;
  struct Ctx {
    Simulator* sim;
    std::vector<Tick>* fires;
  } ctx{&sim, &fires};
  PinnedEvent ev(
      sim, [](void* p) {
        auto* c = static_cast<Ctx*>(p);
        c->fires->push_back(c->sim->Now());
      },
      &ctx);
  ev.ArmAt(50);
  ev.ArmAt(10);  // pull in
  sim.Run();
  ev.ArmAt(sim.Now() + 5);
  ev.ArmAt(sim.Now() + 90);  // push out
  sim.Run();
  EXPECT_EQ(fires, (std::vector<Tick>{10, 100}));
}

TEST(PinnedEventTest, CancelDisarmsAndIsIdempotent) {
  Simulator sim;
  int fired = 0;
  struct Ctx {
    int* fired;
  } ctx{&fired};
  PinnedEvent ev(
      sim, [](void* p) { ++*static_cast<Ctx*>(p)->fired; }, &ctx);
  ev.ArmAt(10);
  ev.Cancel();
  ev.Cancel();  // no-op on a parked node
  EXPECT_FALSE(ev.armed());
  sim.Run();
  EXPECT_EQ(fired, 0);
  // The node is still usable after cancellation.
  ev.ArmAt(sim.Now() + 3);
  sim.Run();
  EXPECT_EQ(fired, 1);
}

TEST(PinnedEventTest, CallbackMayReArmItsOwnNode) {
  Simulator sim;
  struct Ctx {
    Simulator* sim;
    PinnedEvent* ev;
    int count = 0;
  } ctx{&sim, nullptr};
  PinnedEvent ev(
      sim, [](void* p) {
        auto* c = static_cast<Ctx*>(p);
        if (++c->count < 5) c->ev->ArmAt(c->sim->Now() + 10);
      },
      &ctx);
  ctx.ev = &ev;
  ev.ArmAt(10);
  sim.Run();
  EXPECT_EQ(ctx.count, 5);
  EXPECT_EQ(sim.Now(), 50);
}

TEST(PinnedEventTest, FarFutureArmTransitsOverflowHeap) {
  Simulator sim;
  int fired = 0;
  struct Ctx {
    int* fired;
  } ctx{&fired};
  PinnedEvent ev(
      sim, [](void* p) { ++*static_cast<Ctx*>(p)->fired; }, &ctx);
  // Far beyond the wheel span (2^50 ticks): homes in the overflow heap.
  const Tick far = (Tick(1) << 51) + 7;
  ev.ArmAt(far);
  EXPECT_EQ(sim.scheduler().OverflowCount(), 1u);
  // Cancelling a heap-resident pinned node leaves a stale entry that must
  // not fire and must not block a fresh arming of the same node.
  ev.Cancel();
  EXPECT_FALSE(ev.armed());
  ev.ArmAt(far + 1);
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), far + 1);
}

TEST(PinnedEventTest, InterleavesWithRegularEventsInSeqOrder) {
  Simulator sim;
  std::vector<int> order;
  struct Ctx {
    std::vector<int>* order;
  } ctx{&order};
  PinnedEvent ev(
      sim, [](void* p) { static_cast<Ctx*>(p)->order->push_back(1); }, &ctx);
  sim.ScheduleAt(10, [&] { order.push_back(0); });
  ev.ArmAt(10);  // armed after: fires after among equal timestamps
  sim.ScheduleAt(10, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// ---------------------------------------------------------------------------
// Timer lazy re-arm (deadline pushed out without touching the wheel)

TEST(TimerTest, DeadlinePushedOutFiresOnceAtLatestDeadline) {
  Simulator sim;
  std::vector<Tick> fires;
  Timer t(sim, [&] { fires.push_back(sim.Now()); });
  // The RFC 6298 pattern: re-arm on every "ACK", each pushing the expiry
  // out. The stale armings must be absorbed, firing exactly once at the
  // final deadline.
  t.Schedule(100);
  for (Tick at : {Tick{20}, Tick{40}, Tick{60}}) {
    sim.ScheduleAt(at, [&] { t.Schedule(100); });
  }
  sim.Run();
  EXPECT_EQ(fires, (std::vector<Tick>{160}));
  EXPECT_FALSE(t.IsPending());
}

TEST(TimerTest, ExpiresAtTracksLogicalDeadlineWhileArmingIsLazy) {
  Simulator sim;
  Timer t(sim, [] {});
  t.Schedule(50);
  sim.ScheduleAt(10, [&] {
    t.Schedule(200);  // deadline out to 210; physical arming stays at 50
    EXPECT_EQ(t.expires_at(), 210);
    EXPECT_TRUE(t.IsPending());
  });
  // At t=50 the stale arming pops and silently re-homes to 210.
  sim.ScheduleAt(100, [&] { EXPECT_TRUE(t.IsPending()); });
  sim.Run();
  EXPECT_EQ(sim.Now(), 210);
  EXPECT_FALSE(t.IsPending());
}

TEST(TimerTest, CancelDuringStalePendingArmingNeverFires) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  t.Schedule(30);
  sim.ScheduleAt(10, [&] { t.Schedule(100); });  // lazy: arming stays at 30
  sim.ScheduleAt(50, [&] { t.Cancel(); });       // after the stale pop
  sim.Run();
  EXPECT_EQ(fired, 0);
  EXPECT_FALSE(t.IsPending());
}

TEST(TimerTest, PullInReplacesArmingEagerly) {
  Simulator sim;
  std::vector<Tick> fires;
  Timer t(sim, [&] { fires.push_back(sim.Now()); });
  t.Schedule(100);
  sim.ScheduleAt(10, [&] { t.Schedule(20); });  // earlier: must re-home now
  sim.Run();
  EXPECT_EQ(fires, (std::vector<Tick>{30}));
}

TEST(TimerTest, ReArmAfterStaleRehomeStillLazy) {
  Simulator sim;
  std::vector<Tick> fires;
  Timer t(sim, [&] { fires.push_back(sim.Now()); });
  // Two generations of lazy push-out with a stale re-home in between.
  t.Schedule(10);
  sim.ScheduleAt(5, [&] { t.Schedule(50); });    // pops stale at 10, re-homes
  sim.ScheduleAt(30, [&] { t.Schedule(100); });  // pops stale at 55, re-homes
  sim.Run();
  EXPECT_EQ(fires, (std::vector<Tick>{130}));
}

}  // namespace
}  // namespace dctcpp
