#include "dctcpp/sim/simulator.h"

namespace dctcpp {

std::uint64_t Simulator::RunUntil(Tick deadline) {
  stopped_ = false;
  const std::uint64_t executed = RunLoop(SatAddTick(deadline, 1), &stopped_);
  // If we stopped because of the deadline, advance the clock to it so that
  // repeated RunUntil calls observe monotonic time.
  if (!stopped_ && deadline != kTickMax && now_ < deadline) now_ = deadline;
  return executed;
}

std::uint64_t Simulator::RunLoop(Tick end, const bool* stop) {
  std::uint64_t executed = 0;
  while (!*stop) {
    const Tick tc = calendar_.NextTime();
    const Tick tw = scheduler_.NextTime();
    if (std::min(tc, tw) >= end) break;
    if (tc <= tw) {
      // All arrivals due at tick tc deliver before any wheel event at tc,
      // in key order: the one equal-tick rule, whatever the shard count.
      // Deliveries may schedule wheel work at tc (run after the batch); the
      // arrivals they cause land at least one lookahead later.
      now_ = tc;
      do {
        calendar_.DeliverEarliest();
        ++delivered_;
        ++executed;
      } while (!*stop && calendar_.NextTime() == tc);
    } else {
      // Wheel events up to the lookahead horizon: an event at u >= tw may
      // arm the calendar with an arrival due u + lookahead_ at the
      // earliest, so every wheel tick before tw + lookahead_ is safe to run
      // blind, but no further. (The wheel's own loop lives in the
      // scheduler's translation unit so the per-event path is one inlined
      // frame; see TimerWheelScheduler::RunLoop.)
      executed += scheduler_.RunLoop(
          std::min({tc, end, SatAddTick(tw, lookahead_)}) - 1, stop, &now_);
    }
  }
  return executed;
}

}  // namespace dctcpp
