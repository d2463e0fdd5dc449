// Reference discrete-event scheduler (binary heap).
//
// A binary min-heap keyed by (time, insertion sequence): events at the same
// timestamp run in the order they were scheduled, which makes simulations
// deterministic and gives links/queues well-defined FIFO semantics.
// Cancellation is O(1) lazy: a cancelled entry stays in the heap and is
// skipped on pop.
//
// This is the original engine, kept as the differential partner and
// benchmark baseline of the production TimerWheelScheduler
// (sim/timer_wheel.h). The two expose the same interface and obey the
// same determinism contract. Test- and bench-only.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "dctcpp/sim/event_id.h"
#include "dctcpp/util/assert.h"
#include "dctcpp/util/time.h"

namespace dctcpp {

class HeapScheduler {
 public:
  using Action = std::function<void()>;

  /// Schedules `action` at absolute time `at` (must be >= Now of the owning
  /// simulator; the scheduler itself only requires monotonic pops).
  EventId ScheduleAt(Tick at, Action action);

  /// Cancels a pending event; harmless if it already fired or was cancelled.
  void Cancel(EventId id);

  bool Empty() const { return live_.empty(); }
  std::size_t PendingCount() const { return live_.size(); }

  /// Time of the earliest pending event; kTickMax if none.
  Tick NextTime();

  /// Pops and runs the earliest event. Returns its timestamp.
  /// Precondition: !Empty().
  Tick RunNext();

  /// Total events ever executed (for instrumentation).
  std::uint64_t executed() const { return executed_; }

 private:
  struct Entry {
    Tick at;
    std::uint64_t seq;  // tie-break: FIFO among equal timestamps
    std::uint64_t id;
    Action action;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  void DropCancelledHead();

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::unordered_set<std::uint64_t> live_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_id_ = 1;
  std::uint64_t executed_ = 0;
};

}  // namespace dctcpp
